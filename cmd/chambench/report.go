package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// report is the ledger BENCH_hmvp.json: each top-level key holds one
// section's JSON, kept raw so the sections a run did not measure go back
// to disk byte for byte. Raw sections also spare the reader from decoding
// "telemetry", which obs.MetricSnapshot does not unmarshal.
type report map[string]json.RawMessage

// loadReport reads the ledger at path. A missing file is an empty report;
// a malformed one is an error, so a run never overwrites it.
func loadReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return report{}, nil
	}
	if err != nil {
		return nil, err
	}
	rep := report{}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parsing report %s: %w", path, err)
	}
	return rep, nil
}

// saveReport merges the sections in measured into the ledger at path and
// writes it back; every other section keeps its bytes.
func saveReport(path string, measured report) error {
	rep, err := loadReport(path)
	if err != nil {
		return err
	}
	for key, raw := range measured {
		rep[key] = raw
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// set stores v as the section key.
func (r report) set(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("section %s: %w", key, err)
	}
	r[key] = raw
	return nil
}

// get decodes the section key into v; an absent section leaves v as is.
func (r report) get(key string, v any) error {
	raw, ok := r[key]
	if !ok {
		return nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("section %s: %w", key, err)
	}
	return nil
}
