package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/dist"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/obs"
	"gokoala/internal/obsfile"
	"gokoala/internal/peps"
	"gokoala/internal/pool"
	"gokoala/internal/quantum"
)

// The tests drive the real command: the test binary re-enters main when
// it is run with runMainEnv set, so exit codes and output are
// koala-obs's own.
const runMainEnv = "KOALA_OBS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// koalaObs runs the command with args and returns its stdout and exit
// code.
func koalaObs(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("koala-obs %v: %v", args, err)
	}
	if stderr.Len() > 0 {
		t.Logf("koala-obs %v stderr:\n%s", args, stderr.String())
	}
	return stdout.String(), cmd.ProcessState.ExitCode()
}

// recordDistRun writes the JSONL log of a small in-process backend.Dist
// run on a pool of the given size: drive evolves a random 3x3 PEPS held
// by a Gram-path engine on a 4-rank grid.
func recordDistRun(t *testing.T, path string, workers int, drive func(*peps.PEPS)) {
	t.Helper()
	pool.SetWorkers(workers)
	defer pool.SetWorkers(0)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	obs.Enable(obs.NewJSONLSink(f))
	dist.ResetTimelines()

	grid := dist.NewGrid(dist.Stampede2(4)).SetLabel("dist-gram")
	eng := backend.Instrument(&backend.Dist{Grid: grid, UseGram: true, LocalSVD: true})
	drive(peps.Random(eng, rand.New(rand.NewSource(1)), 3, 3, 2, 2))

	if dist.FlushTimelines() == 0 {
		t.Fatal("the dist grid emitted no rank timelines")
	}
	if err := obs.Disable(); err != nil {
		t.Fatal(err)
	}
}

var updateOpts = peps.UpdateOptions{Rank: 2, Method: peps.UpdateQR}

// bondGates is one iSWAP on every bond of p.
func bondGates(p *peps.PEPS) []quantum.TrotterGate {
	var gates []quantum.TrotterGate
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			if c+1 < p.Cols {
				gates = append(gates, quantum.TrotterGate{Sites: []int{p.SiteIndex(r, c), p.SiteIndex(r, c+1)}, Gate: quantum.ISwap()})
			}
			if r+1 < p.Rows {
				gates = append(gates, quantum.TrotterGate{Sites: []int{p.SiteIndex(r, c), p.SiteIndex(r+1, c)}, Gate: quantum.ISwap()})
			}
		}
	}
	return gates
}

// tebdLayer applies the bond gates one at a time, as koala-bench fig7a
// does: the grid is metered from one goroutine, while the kernels below
// it split work over the pool.
func tebdLayer(p *peps.PEPS) {
	for _, g := range bondGates(p) {
		p.ApplyTwoSite(g.Gate, g.Sites[0], g.Sites[1], updateOpts)
	}
}

// The same run at 1 and at 4 workers must diff clean (the worker-count
// contract of DESIGN.md section 10); report prints the modeled per-op
// communication table; report -json parses.
func TestDiffReportAcrossWorkerCounts(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "w1.jsonl"), filepath.Join(dir, "w4.jsonl")
	recordDistRun(t, a, 1, tebdLayer)
	recordDistRun(t, b, 4, tebdLayer)

	out, code := koalaObs(t, "diff", a, b)
	if code != 0 || !strings.HasPrefix(out, "traces agree on all ") {
		t.Fatalf("diff across worker counts exited %d:\n%s", code, out)
	}

	out, code = koalaObs(t, "report", a)
	if code != 0 {
		t.Fatalf("report exited %d:\n%s", code, out)
	}
	_, table, ok := strings.Cut(out, "-- collectives: modeled comm seconds --\n")
	if !ok {
		t.Fatalf("report has no modeled collectives table:\n%s", out)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	for _, op := range []string{"op", "allreduce", "gemm"} {
		if !strings.HasPrefix(table, op+" ") && !strings.Contains(table, "\n"+op+" ") {
			t.Errorf("collectives table has no %q row:\n%s", op, table)
		}
	}

	out, code = koalaObs(t, "report", "-json", a)
	if code != 0 {
		t.Fatalf("report -json exited %d:\n%s", code, out)
	}
	var doc obsfile.ReportDoc
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("report -json does not parse: %v", err)
	}
	if len(doc.Collectives) == 0 || len(doc.Ranks) != 4 || doc.Spans == 0 {
		t.Fatalf("report -json lost content: %d collectives, %d rank rows, %d spans",
			len(doc.Collectives), len(doc.Ranks), doc.Spans)
	}
}

// Known defect, pinned to its extent: when concurrent tasks drive one
// grid (ApplyCircuit's gate waves, the BMPS norm's fan-out), the
// dist.modeled.*_seconds obs counters sum float64 seconds in arrival
// order, so at 4 workers they can differ from the 1-worker run in the
// last bits. Every other deterministic field must still agree exactly.
// Once those counters accumulate order-independently, this run must
// diff clean too.
func TestConcurrentGridDriveDiffersOnlyInModeledSecondsRounding(t *testing.T) {
	drive := func(p *peps.PEPS) {
		p.ApplyCircuit(bondGates(p), updateOpts)
		p.Norm(peps.BMPS{M: 4, Strategy: einsumsvd.Explicit{}})
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "w1.jsonl"), filepath.Join(dir, "w4.jsonl")
	recordDistRun(t, a, 1, drive)
	recordDistRun(t, b, 4, drive)
	ta, err := obsfile.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := obsfile.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	diffs, _ := obsfile.Diff(ta, tb)
	for _, d := range diffs {
		rounding := d.InA && d.InB && strings.HasPrefix(d.Field, "dist.modeled.") && strings.HasSuffix(d.Field, "_seconds") &&
			math.Abs(d.B-d.A) <= 1e-12*math.Abs(d.A)
		if !rounding {
			t.Errorf("field differs across worker counts beyond float summation order: %s", d)
		}
	}
}

// diff must fail on a changed deterministic field, or passing it says
// nothing.
func TestDiffCatchesModeledChange(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	recordDistRun(t, a, 1, tebdLayer)
	raw, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte(`"dist.comm.msgs":`)
	i := bytes.Index(raw, key)
	if i < 0 {
		t.Fatal("log has no dist.comm.msgs counter")
	}
	b := filepath.Join(dir, "b.jsonl")
	mutated := append(append(append([]byte{}, raw[:i+len(key)]...), '1'), raw[i+len(key):]...)
	if err := os.WriteFile(b, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := koalaObs(t, "diff", a, b); code != 1 || !strings.Contains(out, "dist.comm.msgs") {
		t.Fatalf("diff of a changed msgs counter exited %d:\n%s", code, out)
	}
}
