package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// ledgerCopy copies the committed ledger into a temp dir and returns the
// copy's path and the ledger's sections.
func ledgerCopy(t *testing.T) (string, report) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_hmvp.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_hmvp.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, rep
}

// sameSections fails unless every listed section of got is byte-identical
// to want's.
func sameSections(t *testing.T, want, got report, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if want[k] == nil {
			t.Fatalf("ledger has no %s section", k)
		}
		if !bytes.Equal(want[k], got[k]) {
			t.Errorf("section %s changed", k)
		}
	}
}

func TestSaveReportRoundTripsLedger(t *testing.T) {
	path, _ := ledgerCopy(t)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := saveReport(path, report{}); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("saving no sections rewrote the ledger (%d -> %d bytes)", len(before), len(after))
	}
}

func TestSaveRemoteKeepsOtherSections(t *testing.T) {
	path, before := ledgerCopy(t)
	measured := report{}
	if err := measured.set("remote", &remoteResult{Target: "self", RingDegree: 256, Clients: remoteClients}); err != nil {
		t.Fatal(err)
	}
	if err := saveReport(path, measured); err != nil {
		t.Fatal(err)
	}
	after, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	sameSections(t, before, after, "benchmarks", "cluster", "np", "prepared_apply_speedup", "telemetry")
	var rr remoteResult
	if err := after.get("remote", &rr); err != nil || rr.Target != "self" {
		t.Fatalf("remote section = %+v, %v", rr, err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("ledger has %d sections, want %d", len(after), len(before)+1)
	}
}

func TestSaveWarmKeepsClusterAndNp(t *testing.T) {
	path, before := ledgerCopy(t)
	measured := report{}
	rows := []result{{Name: "Prepared/warm/N=256", RingDegree: 256, NsPerOp: 1}}
	for key, v := range map[string]any{
		"benchmarks":             rows,
		"prepared_apply_speedup": map[string]float64{"N=256": 2},
		"telemetry":              []string{},
	} {
		if err := measured.set(key, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := saveReport(path, measured); err != nil {
		t.Fatal(err)
	}
	after, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	sameSections(t, before, after, "cluster", "np")
	var got []result
	if err := after.get("benchmarks", &got); err != nil || len(got) != 1 || got[0] != rows[0] {
		t.Fatalf("benchmarks = %+v, %v; want the measured rows", got, err)
	}
}

func TestSaveReportStartsMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.json")
	rep, err := loadReport(path)
	if err != nil || len(rep) != 0 {
		t.Fatalf("missing file loaded as %v, %v; want an empty report", rep, err)
	}
	measured := report{}
	if err := measured.set("np", &npResult{InferenceMillis: 1}); err != nil {
		t.Fatal(err)
	}
	if err := saveReport(path, measured); err != nil {
		t.Fatal(err)
	}
	got, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["np"] == nil {
		t.Fatalf("fresh report holds %v, want only np", got)
	}
}

func TestSaveReportRefusesMalformedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	bad := []byte(`{"benchmarks": [`)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(path); err == nil {
		t.Fatal("loadReport accepted a malformed file")
	}
	measured := report{}
	if err := measured.set("remote", &remoteResult{}); err != nil {
		t.Fatal(err)
	}
	if err := saveReport(path, measured); err == nil {
		t.Fatal("saveReport overwrote a malformed file")
	}
	if data, _ := os.ReadFile(path); !bytes.Equal(data, bad) {
		t.Fatalf("malformed file changed to %q", data)
	}
}
