package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestListFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, want := range []string{"4.2", "runner specs", "baseline"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	err := run([]string{"-fig", "9.9"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("err = %v, want unknown-figure error", err)
	}
}

func TestSingleFigureWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "4.9", "-csv", dir}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4_9.csv"))
	if err != nil {
		t.Fatalf("csv missing: %v", err)
	}
	if !strings.HasPrefix(string(data), "seq,") {
		t.Fatalf("csv header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestUnknownSpec(t *testing.T) {
	err := run([]string{"-replicas", "1", "-spec", "fig9.9"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown spec") {
		t.Fatalf("err = %v, want unknown-spec error", err)
	}
}

// TestJSONArtifactDeterministicAcrossParallelism is the acceptance
// check: the same root seed and replica count must produce a
// byte-identical artifact (modulo timing fields) whether the replicas ran
// on one worker or eight.
func TestJSONArtifactDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica scenario runs are slow")
	}
	dir := t.TempDir()
	artifact := func(workers int, path string) []byte {
		args := []string{
			"-spec", "baseline", "-replicas", "3", "-seed", "42",
			"-parallel", strconv.Itoa(workers),
			"-json", path,
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("run -parallel %d: %v", workers, err)
		}
		if !strings.Contains(out.String(), "baseline (n=3)") {
			t.Fatalf("-parallel %d text output missing aggregate:\n%s", workers, out.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		doc, err := runner.DecodeDocument(f)
		if err != nil {
			t.Fatalf("artifact does not parse: %v", err)
		}
		if doc.Schema != runner.SchemaVersion || doc.RootSeed != 42 || doc.Replicas != 3 {
			t.Fatalf("artifact header wrong: %+v", doc)
		}
		for _, rep := range doc.Results[0].Replicas {
			if rep.Seed != runner.ReplicaSeed(42, rep.Index) {
				t.Fatalf("replica %d has seed %d, want derived %d",
					rep.Index, rep.Seed, runner.ReplicaSeed(42, rep.Index))
			}
		}
		doc.Canonicalize()
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := artifact(1, filepath.Join(dir, "serial.json"))
	parallel := artifact(8, filepath.Join(dir, "parallel.json"))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("artifacts diverge across -parallel 1 vs 8:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestExplicitSpecImpliesOneReplica pins the `-spec NAME` shorthand: an
// explicit spec selection without -replicas runs one full replica through
// the runner instead of silently falling back to the figure path.
func TestExplicitSpecImpliesOneReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run is slow")
	}
	var out bytes.Buffer
	if err := run([]string{"-spec", "baseline"}, &out); err != nil {
		t.Fatalf("run -spec: %v", err)
	}
	if !strings.Contains(out.String(), "baseline (n=1)") {
		t.Fatalf("-spec alone did not run one replica:\n%s", out.String())
	}
}

func TestSeedsAliasUsesRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run is slow")
	}
	var out bytes.Buffer
	if err := run([]string{"-seeds", "2", "-spec", "baseline"}, &out); err != nil {
		t.Fatalf("run -seeds: %v", err)
	}
	if !strings.Contains(out.String(), "baseline (n=2)") {
		t.Fatalf("-seeds output missing aggregate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "lost_enhanced") {
		t.Fatalf("-seeds output missing metric rows:\n%s", out.String())
	}
}

func TestWorkersFlagPreservesArtifacts(t *testing.T) {
	// -workers changes execution strategy only: the city spec's artifact
	// must be byte-identical (canonicalized) at any worker count.
	if testing.Short() {
		t.Skip("scenario runs are slow")
	}
	dir := t.TempDir()
	artifact := func(path string, extra ...string) []byte {
		args := append([]string{"-spec", "city", "-replicas", "1", "-seed", "11", "-json", path}, extra...)
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("run %v: %v", extra, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		doc, err := runner.DecodeDocument(f)
		if err != nil {
			t.Fatalf("artifact does not parse: %v", err)
		}
		doc.Canonicalize()
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	w2 := artifact(filepath.Join(dir, "w2.json"), "-workers", "2")
	w3 := artifact(filepath.Join(dir, "w3.json"), "-workers", "3")
	if !bytes.Equal(w2, w3) {
		t.Fatalf("artifacts diverge across -workers:\n%s\nvs\n%s", w2, w3)
	}
}
