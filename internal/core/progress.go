package core

// Progress reporting for long executions: the paper's full protocol
// runs 75,000 generations per execution, so production use needs
// visibility into the trajectory and a way to stop spending budget
// once the population has converged (Execution.Run's callback).

// Progress is a point-in-time snapshot passed to progress callbacks.
type Progress struct {
	Generation   int
	BestFitness  float64
	MeanFitness  float64
	Replacements int // cumulative offspring accepted
}

// snapshot builds a Progress from the current population.
func (ex *Execution) snapshot() Progress {
	best, sum := ex.Pop[0].Fitness, 0.0
	for _, r := range ex.Pop {
		if r.Fitness > best {
			best = r.Fitness
		}
		sum += r.Fitness
	}
	return Progress{
		Generation:   ex.Stats.Generations,
		BestFitness:  best,
		MeanFitness:  sum / float64(len(ex.Pop)),
		Replacements: ex.Stats.Replacements,
	}
}
