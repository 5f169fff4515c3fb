package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/linalg"
)

// Serialization lets a trained RuleSet be saved and reloaded (the
// paper's system accumulates rules across executions that may happen
// in different processes). JSON keeps the format inspectable; ±Inf
// errors (unfitted rules) are encoded as the string "inf".

type ruleJSON struct {
	Cond       []intervalJSON `json:"cond"`
	Coef       []float64      `json:"coef,omitempty"`
	Intercept  float64        `json:"intercept"`
	Prediction float64        `json:"prediction"`
	Error      interface{}    `json:"error"`
	Matches    int            `json:"matches"`
	Fitness    float64        `json:"fitness"`
}

type intervalJSON struct {
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Wildcard bool    `json:"wildcard,omitempty"`
}

type ruleSetJSON struct {
	D     int        `json:"d"`
	Rules []ruleJSON `json:"rules"`
}

// WriteJSON encodes the rule set to w.
func (rs *RuleSet) WriteJSON(w io.Writer) error {
	out := ruleSetJSON{D: rs.D}
	for _, r := range rs.Rules {
		rj := ruleJSON{
			Prediction: r.Prediction,
			Matches:    r.Matches,
			Fitness:    r.Fitness,
		}
		if math.IsInf(r.Error, 1) {
			rj.Error = "inf"
		} else {
			rj.Error = r.Error
		}
		for _, iv := range r.Cond {
			rj.Cond = append(rj.Cond, intervalJSON{Lo: iv.Lo, Hi: iv.Hi, Wildcard: iv.Wildcard})
		}
		if r.Fit != nil {
			rj.Coef = r.Fit.Coef
			rj.Intercept = r.Fit.Intercept
		}
		out.Rules = append(out.Rules, rj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ErrRuleSet is wrapped by every error ReadJSON returns: the input is
// not a rule set as WriteJSON writes one.
var ErrRuleSet = errors.New("core: malformed rule set")

// maxRuleSetD bounds the window width ReadJSON accepts, so that an
// empty rule set cannot hand a D near 2^63 to whatever windows data by
// it. The paper's widest window is 24 lags; a rule over 2^16 lags
// would carry a megabyte of genes.
const maxRuleSetD = 1 << 16

// ReadJSON decodes a rule set written by WriteJSON: one JSON value,
// followed by nothing but whitespace. Every error wraps ErrRuleSet.
func ReadJSON(r io.Reader) (*RuleSet, error) {
	var in ruleSetJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("%w: decoding: %w", ErrRuleSet, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: data after the rule set", ErrRuleSet)
	}
	if in.D <= 0 || in.D > maxRuleSetD {
		return nil, fmt.Errorf("%w: invalid D=%d (want 1..%d)", ErrRuleSet, in.D, maxRuleSetD)
	}
	rs := NewRuleSet(in.D)
	for i, rj := range in.Rules {
		if len(rj.Cond) != in.D {
			return nil, fmt.Errorf("%w: rule %d has %d genes, want %d", ErrRuleSet, i, len(rj.Cond), in.D)
		}
		cond := make([]Interval, len(rj.Cond))
		for j, ij := range rj.Cond {
			// NewInterval orders its bounds, so WriteJSON never writes
			// an inverted gene. NaN bounds compare false and load.
			if !ij.Wildcard && ij.Lo > ij.Hi {
				return nil, fmt.Errorf("%w: rule %d gene %d has lo %v > hi %v", ErrRuleSet, i, j, ij.Lo, ij.Hi)
			}
			cond[j] = Interval{Lo: ij.Lo, Hi: ij.Hi, Wildcard: ij.Wildcard}
		}
		rule := NewRule(cond)
		rule.Prediction = rj.Prediction
		rule.Matches = rj.Matches
		rule.Fitness = rj.Fitness
		switch e := rj.Error.(type) {
		case string:
			if e != "inf" {
				return nil, fmt.Errorf("%w: rule %d has malformed error field %q", ErrRuleSet, i, e)
			}
			rule.Error = math.Inf(1)
		case float64:
			rule.Error = e
		case nil:
			rule.Error = math.Inf(1)
		default:
			return nil, fmt.Errorf("%w: rule %d has malformed error field %v", ErrRuleSet, i, e)
		}
		if rj.Coef != nil {
			if len(rj.Coef) != in.D {
				return nil, fmt.Errorf("%w: rule %d has %d coefficients, want %d", ErrRuleSet, i, len(rj.Coef), in.D)
			}
			rule.Fit = &linalg.LinearFit{Coef: rj.Coef, Intercept: rj.Intercept}
		}
		rs.Add(rule)
	}
	return rs, nil
}

// Save writes the rule set to a file.
func (rs *RuleSet) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rs.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// Load reads a rule set from a file.
func Load(path string) (*RuleSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(f)
}
