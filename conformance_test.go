package parroute_test

// The conformance matrix: the one test that compares routing output with
// the committed goldens. The algorithms are written once against mp.Comm,
// so no entry point, engine, transport, worker count or fault plan may move
// a wire. Every row routes one configuration and its canonical bytes
// (service.CanonicalResult) must equal one file under testdata/golden.
// Subtests are named by their axis values, so -run selects rows:
//
//	go test -run 'TestConformance/library/small/tcp-mesh/hybrid/p2/w8/chaos=dup-reorder' .
//
// Refresh the goldens (only when an intentional quality change lands) with
//
//	UPDATE_GOLDEN=1 go test -run TestConformance .

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/route"
	"parroute/internal/runcfg"
	"parroute/internal/service"
	"parroute/internal/workpool"
)

// routeSeed is the routing seed of every row.
const routeSeed = 7

// goldenCircuits are the circuits the goldens route: gen.Small(42) and
// primary2 at generation seed 7, loaded the way twgr and twgrd load them.
var goldenCircuits = []struct {
	name    string
	genSeed uint64
}{{"small", 42}, {"primary2", 7}}

// libraryEngines are the engines parallel.Run is crossed with. tcp-mesh is
// the multi-process TCP mesh, one goroutine per rank with its own
// Options.Dist standing in for one twgr process each.
var libraryEngines = []struct {
	name string
	mode mp.Mode
	mesh bool
}{{"virtual", mp.Virtual, false}, {"inproc", mp.Inproc, false}, {"tcp", mp.TCP, false}, {"tcp-mesh", mp.TCP, true}}

// chaosPlans crosses every library row at two procs or more. The three
// delay rows are named for the fault mixes they stand for: every engine
// delivers reliably and in order, so a lost, duplicated or overtaken send
// can only reach its receiver late, and each row runs the delay plan its
// mix comes down to. drop5-delay10 stalls 15% of the sends, dup-reorder
// 10% by a longer wait, everything all of them. Waits are shrunk so the
// rows stay quick; the crash plan kills rank 1 at its fifth send.
var chaosPlans = []struct {
	name string
	plan *mp.Plan
}{
	{"none", nil},
	{"drop5-delay10", &mp.Plan{Delay: 0.15, DelayBy: 5 * time.Microsecond}},
	{"dup-reorder", &mp.Plan{Delay: 0.10, DelayBy: 20 * time.Microsecond}},
	{"everything", &mp.Plan{Delay: 1, DelayBy: 2 * time.Microsecond}},
	{"crash1@5", &mp.Plan{Crash: map[int]int{1: 5}}},
}

// chaosSeed is the fault schedule's seed: CHAOS_SEED, default 1, so CI
// sweeps schedules without a code change.
func chaosSeed(t *testing.T) uint64 {
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	seed, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", s, err)
	}
	return seed
}

// checkGolden compares a row's canonical bytes with the golden for circuit,
// algo and procs, read without its trailing newline. Serial rows and P=1
// rows share <circuit>-serial.json; a P=1 row of a parallel algorithm
// expects that file with the algo field renamed to its own. UPDATE_GOLDEN=1
// rewrites a file from the rows that map onto it unrenamed.
func checkGolden(t *testing.T, got []byte, circuit, algo string, procs int) {
	t.Helper()
	name := fmt.Sprintf("%s-%s-p%d.json", circuit, algo, procs)
	renamed := algo != "serial" && procs == 1
	if algo == "serial" || renamed {
		name = circuit + "-serial.json"
	}
	path := filepath.Join("testdata", "golden", name)
	if os.Getenv("UPDATE_GOLDEN") != "" && !renamed {
		if err := os.WriteFile(path, append(bytes.Clone(got), '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	want = bytes.TrimSuffix(want, []byte("\n"))
	if renamed {
		want = bytes.Replace(want, []byte(`"algo":"twgr-serial"`), []byte(`"algo":"`+algo+`"`), 1)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("routing output differs from %s (len %d vs %d); if intentional, refresh with UPDATE_GOLDEN=1",
			name, len(want), len(got))
	}
}

func canonical(t *testing.T, res *metrics.Result) []byte {
	t.Helper()
	b, err := service.CanonicalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// freeAddr reserves a loopback rendezvous address: bind, record, release.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func TestConformance(t *testing.T) {
	ctx := context.Background()
	seed := chaosSeed(t)
	// A row that exchanges a dozen messages can draw no fault at all, so
	// that each plan injects is checked per engine, over the rows it ran.
	injected := map[string]int64{}
	for _, gc := range goldenCircuits {
		c, err := runcfg.LoadPreset(gc.name, gc.genSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("library/%s/serial/w%d", gc.name, w), func(t *testing.T) {
				res, err := parallel.RunBaseline(ctx, c, parallel.Options{Procs: 1, Route: route.Options{Seed: routeSeed, Workers: w}})
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, canonical(t, res), gc.name, "serial", 1)
			})
		}
		for _, eng := range libraryEngines {
			for _, algo := range parallel.Algorithms() {
				for _, procs := range []int{1, 2, 4} {
					for _, w := range []int{1, 8} {
						for _, cp := range chaosPlans {
							if procs == 1 && cp.plan != nil {
								continue
							}
							name := fmt.Sprintf("library/%s/%s/%v/p%d/w%d/chaos=%s", gc.name, eng.name, algo, procs, w, cp.name)
							t.Run(name, func(t *testing.T) {
								opt := parallel.Options{Algo: algo, Procs: procs, Mode: eng.mode, Route: route.Options{Seed: routeSeed, Workers: w}}
								if cp.plan != nil {
									plan := *cp.plan
									plan.Seed = seed
									opt.Chaos = &plan
								}
								f := checkLibraryRow(t, c, opt, eng.mesh, gc.name)
								if cp.plan != nil && cp.plan.Crash == nil {
									injected[eng.name+"/chaos="+cp.name] += f.Delays
								}
							})
						}
					}
				}
			}
		}
	}
	for key, n := range injected {
		if n == 0 {
			t.Errorf("library/*/%s: no row injected a fault", key)
		}
	}

	// Biomed has no golden; its serial route at more workers must equal
	// its route at one.
	t.Run("library/biomed/serial", func(t *testing.T) {
		c, err := runcfg.LoadPreset("biomed", 7)
		if err != nil {
			t.Fatal(err)
		}
		serial := func(t *testing.T, workers int) []byte {
			t.Helper()
			res, err := parallel.RunBaseline(ctx, c, parallel.Options{Procs: 1, Route: route.Options{Seed: routeSeed, Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			return canonical(t, res)
		}
		ref := serial(t, 1)
		for _, w := range []int{2, 8} {
			t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
				if !bytes.Equal(ref, serial(t, w)) {
					t.Errorf("workers=%d output differs from workers=1", w)
				}
			})
		}
	})

	// One daemon per (engine, workers): the cache key leaves the engine
	// out, so a shared daemon would serve every later engine from its
	// cache. Each job is posted twice through the HTTP handler, computed
	// and then a cache hit, and what a client would receive is checked:
	// the whole body Content-Length says, an envelope that verifies, and
	// its metrics equal to the golden.
	for _, engine := range []string{"virtual", "inproc", "tcp"} {
		for _, w := range []int{1, 8} {
			defaults := runcfg.Default()
			defaults.Engine, defaults.Workers = engine, w
			srv := service.New(service.Config{Defaults: defaults})
			poolCtx, stop := context.WithCancel(ctx)
			srv.Start(poolCtx)
			t.Cleanup(func() {
				stop()
				srv.Wait()
			})
			handler := srv.Handler()
			for _, gc := range goldenCircuits {
				for _, algo := range []string{"serial", "rowwise", "netwise", "hybrid"} {
					for _, procs := range []int{1, 2, 4} {
						if algo == "serial" && procs > 1 {
							continue
						}
						t.Run(fmt.Sprintf("twgrd/%s/%s/%s/p%d/w%d", gc.name, engine, algo, procs, w), func(t *testing.T) {
							body, err := service.Encode(service.KindJob, service.JobSpec{Preset: gc.name, GenSeed: gc.genSeed, Algo: algo, Procs: procs, Seed: routeSeed})
							if err != nil {
								t.Fatal(err)
							}
							for _, hit := range []bool{false, true} {
								reqCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
								rec := httptest.NewRecorder()
								handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)).WithContext(reqCtx))
								cancel()
								data := rec.Body.Bytes()
								if rec.Code != http.StatusOK {
									t.Fatalf("HTTP %d: %.300s", rec.Code, data)
								}
								if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(data)) {
									t.Errorf("Content-Length %s, body %d bytes", cl, len(data))
								}
								env, err := service.Decode(data)
								if err != nil {
									t.Fatal(err)
								}
								var res service.JobResult
								if err := env.DecodeBody(service.KindResult, &res); err != nil {
									t.Fatal(err)
								}
								if res.CacheHit != hit {
									t.Errorf("cacheHit = %v, want %v", res.CacheHit, hit)
								}
								checkGolden(t, res.Metrics, gc.name, algo, procs)
							}
						})
					}
				}
			}
		}
	}

	t.Run("twgr/small", func(t *testing.T) {
		dir := t.TempDir()
		bin := filepath.Join(dir, "twgr")
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/twgr").CombinedOutput(); err != nil {
			t.Fatalf("go build: %v\n%s", err, out)
		}
		preset := []string{"-preset", "small", "-gen-seed", "42", "-seed", strconv.Itoa(routeSeed)}
		// twgr runs one process per rank and returns rank 0's -out result.
		twgr := func(t *testing.T, args []string, ranks int) []byte {
			t.Helper()
			runCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
			defer cancel()
			outPath := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".json")
			var addr string
			if ranks > 1 {
				addr = freeAddr(t)
			}
			cmds := make([]*exec.Cmd, ranks)
			outs := make([]bytes.Buffer, ranks)
			for r := range cmds {
				a := append(append([]string{}, preset...), args...)
				if ranks > 1 {
					a = append(a, "-addr", addr, "-rank", strconv.Itoa(r), "-ranks", strconv.Itoa(ranks))
				}
				if r == 0 {
					a = append(a, "-out", outPath)
				}
				cmds[r] = exec.CommandContext(runCtx, bin, a...)
				cmds[r].Stdout, cmds[r].Stderr = &outs[r], &outs[r]
				if err := cmds[r].Start(); err != nil {
					t.Fatal(err)
				}
			}
			for r, cmd := range cmds {
				if err := cmd.Wait(); err != nil {
					t.Fatalf("rank %d: %v\n%s", r, err, outs[r].String())
				}
				if r > 0 && !strings.Contains(outs[r].String(), fmt.Sprintf("rank %d finished", r)) {
					t.Errorf("rank %d did not report worker completion:\n%s", r, outs[r].String())
				}
			}
			f, err := os.Open(outPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			res, err := metrics.ReadResultJSON(f)
			if err != nil {
				t.Fatal(err)
			}
			return canonical(t, res)
		}
		t.Run("serial", func(t *testing.T) {
			checkGolden(t, twgr(t, nil, 1), "small", "serial", 1)
		})
		t.Run("inproc/hybrid/p2", func(t *testing.T) {
			checkGolden(t, twgr(t, []string{"-algo", "hybrid", "-p", "2", "-engine", "inproc"}, 1), "small", "hybrid", 2)
		})
		t.Run("tcp-mesh/hybrid/p2", func(t *testing.T) {
			checkGolden(t, twgr(t, []string{"-algo", "hybrid", "-engine", "tcp"}, 2), "small", "hybrid", 2)
		})
	})
}

// checkLibraryRow runs parallel.Run once, or once per rank on the mesh,
// checks rank 0's result and returns its fault report. A crash plan must
// degrade to exactly the serial golden, every other plan must leave the
// row's golden untouched.
func checkLibraryRow(t *testing.T, c *circuit.Circuit, opt parallel.Options, mesh bool, circuitName string) *metrics.FaultReport {
	t.Helper()
	crash := opt.Chaos != nil && len(opt.Chaos.Crash) > 0
	ranks, addr := 1, ""
	if mesh {
		ranks, addr = opt.Procs, freeAddr(t)
	}
	results := make([]*metrics.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := range ranks {
		o := opt
		if mesh {
			o.Dist = &mp.NetConfig{Rank: r, Ranks: ranks, Addr: addr, RendezvousTimeout: 30 * time.Second}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = parallel.Run(context.Background(), c, o)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("run hung")
	}
	for r := 1; r < ranks; r++ {
		if results[r] != nil {
			t.Errorf("rank %d returned a result; only rank 0 gathers", r)
		}
		switch err := errs[r]; {
		case crash && !errors.Is(err, mp.ErrRankLost):
			t.Errorf("rank %d returned %v, want ErrRankLost", r, err)
		case !crash && err != nil:
			t.Errorf("rank %d: %v", r, err)
		}
	}
	res := results[0]
	if errs[0] != nil || res == nil {
		t.Fatalf("rank 0: result %v, err %v", res, errs[0])
	}
	if opt.Chaos != nil && (res.Faults == nil || res.Faults.Sends == 0) {
		t.Fatalf("fault report %v, want the plan's tally of a live transport", res.Faults)
	}
	switch {
	case crash:
		// A mesh process tallies its own sends only, so rank 0 cannot
		// count the crash of rank 1's process.
		if !res.Degraded || !mesh && res.Faults.Crashes != 1 {
			t.Fatalf("degraded %v, %d crashes; want the serial fallback after one crash", res.Degraded, res.Faults.Crashes)
		}
		res.Degraded = false // only the marker may differ from the serial route
		checkGolden(t, canonical(t, res), circuitName, "serial", 1)
	case res.Degraded:
		t.Fatal("degraded without a crash plan")
	default:
		checkGolden(t, canonical(t, res), circuitName, opt.Algo.String(), opt.Procs)
	}
	return res.Faults
}

// TestGoldensAreValidRoutes holds every golden to the invariants of a
// correct global route. Every conformance row equals some golden byte for
// byte, so each row inherits them.
func TestGoldensAreValidRoutes(t *testing.T) {
	for _, gc := range goldenCircuits {
		c, err := runcfg.LoadPreset(gc.name, gc.genSeed)
		if err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join("testdata", "golden", gc.name+"-*.json"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no %s goldens: %v", gc.name, err)
		}
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := metrics.ReadResultJSON(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			checkResult(t, filepath.Base(path), c.NumChannels(), res)
		}
	}
}

// TestWorkersByteIdenticalAtSeams routes at eight workers with the cut
// threshold of the ordered band sweeps (coarse flips, wire placement, switch
// flips) lowered until even gen.Small is cut into eight bands, on all the
// box's processors and on one: the serial router and the hybrid driver must
// still produce the committed goldens, and — a wait that only ends when the
// peer owns a core hangs on one P and nowhere else — inside the watchdog.
// It changes process-wide state, so it runs on its own beside the matrix.
func TestWorkersByteIdenticalAtSeams(t *testing.T) {
	defer workpool.SetMinBandOpsForTest(8)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		runtime.GOMAXPROCS(procs)
		type routed struct {
			circuit, algo string
			procs         int
			res           *metrics.Result
			err           error
		}
		out := make(chan routed, 2*len(goldenCircuits)) // every send, so a failed check strands nobody
		go func() {
			defer close(out)
			for _, gc := range goldenCircuits {
				c, err := runcfg.LoadPreset(gc.name, gc.genSeed)
				if err != nil {
					out <- routed{gc.name, "serial", 1, nil, err}
					continue
				}
				opt := parallel.Options{Procs: 1, Route: route.Options{Seed: routeSeed, Workers: 8}}
				res, err := parallel.RunBaseline(context.Background(), c, opt)
				out <- routed{gc.name, "serial", 1, res, err}
				opt.Algo, opt.Procs, opt.Mode = parallel.Hybrid, 2, mp.Inproc
				res, err = parallel.Run(context.Background(), c, opt)
				out <- routed{gc.name, "hybrid", 2, res, err}
			}
		}()
		for watchdog := time.After(2 * time.Minute); ; {
			var r routed
			var ok bool
			select {
			case r, ok = <-out:
			case <-watchdog:
				t.Fatalf("routing at eight workers on %d P did not finish", procs)
			}
			if !ok {
				break
			}
			if r.err != nil {
				t.Fatalf("%s %s on %d P: %v", r.circuit, r.algo, procs, r.err)
			}
			checkGolden(t, canonical(t, r.res), r.circuit, r.algo, r.procs)
		}
	}
}
