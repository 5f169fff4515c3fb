package series

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteCSV writes the series as two columns (index, value) with a
// header row.
func WriteCSV(w io.Writer, s *Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t", s.Name}); err != nil {
		return err
	}
	for i, v := range s.Values {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(v, 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ErrCSV is wrapped by every error ReadCSV returns: the input is not
// a readable series CSV.
var ErrCSV = errors.New("series: malformed CSV")

// ReadCSV reads a series written by WriteCSV (or any CSV whose last
// column is the value and whose first row is a header). Every error
// wraps ErrCSV.
func ReadCSV(r io.Reader) (*Series, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCSV, err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("%w: no data rows", ErrCSV)
	}
	name := "series"
	if len(rows[0]) > 0 {
		name = rows[0][len(rows[0])-1]
	}
	values := make([]float64, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: %w", ErrCSV, i+2, err)
		}
		values = append(values, v)
	}
	return New(name, values), nil
}

// SaveCSV writes the series to a file path.
func SaveCSV(path string, s *Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteCSV(f, s); err != nil {
		return err
	}
	return f.Close()
}

// LoadCSV reads a series from a file path.
func LoadCSV(path string) (*Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}
