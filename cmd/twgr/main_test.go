package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parroute/internal/metrics"
	"parroute/internal/pipeline"
)

// buildTwgr compiles the command under test into dir.
func buildTwgr(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "twgr")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestTraceIsTheRunsPhases: -trace is a view of the finished run on both
// the serial and the parallel path, so its identity and stages equal the
// Result.Phases the same run writes with -out, elapsed times included.
func TestTraceIsTheRunsPhases(t *testing.T) {
	dir := t.TempDir()
	bin := buildTwgr(t, dir)
	for _, algo := range [][]string{{"-algo", "serial"}, {"-algo", "hybrid", "-p", "2", "-engine", "inproc"}} {
		t.Run(algo[1], func(t *testing.T) {
			outPath := filepath.Join(dir, algo[1]+".json")
			tracePath := filepath.Join(dir, algo[1]+".trace.json")
			args := append([]string{"-preset", "small", "-out", outPath, "-trace", tracePath}, algo...)
			if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
				t.Fatalf("twgr %v: %v\n%s", args, err, out)
			}
			f, err := os.Open(outPath)
			if err != nil {
				t.Fatal(err)
			}
			res, err := metrics.ReadResultJSON(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			f, err = os.Open(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := pipeline.ReadTrace(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tr.Circuit != res.Circuit || tr.Algo != res.Algo || tr.Procs != res.Procs {
				t.Errorf("trace identity %s/%s/%d, result %s/%s/%d",
					tr.Circuit, tr.Algo, tr.Procs, res.Circuit, res.Algo, res.Procs)
			}
			if len(res.Phases) == 0 || !reflect.DeepEqual(tr.Stages, res.Phases) {
				t.Errorf("trace stages %+v\nresult phases %+v", tr.Stages, res.Phases)
			}
			if out, err := exec.Command(bin, "-checktrace", tracePath).CombinedOutput(); err != nil {
				t.Errorf("-checktrace on its own trace: %v\n%s", err, out)
			}
		})
	}

	old := filepath.Join(dir, "v1.json")
	if err := os.WriteFile(old, []byte(`{"schema":"parroute-trace/1","stages":[{"name":"steiner","wallNs":5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-checktrace", old).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "parroute-trace/1") {
		t.Errorf("-checktrace on a /1 trace: err %v, output %q (want a failure naming the schema)", err, out)
	}
}

// TestSerialOnlyFlagsFailBeforeRouting: -svg and -verify need the serial
// router's circuit, so a parallel -algo is refused before anything routes.
func TestSerialOnlyFlagsFailBeforeRouting(t *testing.T) {
	dir := t.TempDir()
	bin := buildTwgr(t, dir)
	for _, flag := range [][]string{{"-svg", filepath.Join(dir, "x.svg")}, {"-verify"}} {
		args := append([]string{"-preset", "small", "-algo", "hybrid", "-p", "2"}, flag...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("twgr %v exited 0", args)
		}
		if strings.Contains(string(out), "algorithm hybrid on") {
			t.Errorf("twgr %v routed before refusing:\n%s", args, out)
		}
	}
}
