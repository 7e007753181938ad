package route

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/metrics"
)

// TestVerifyMutations routes primary2 once and holds Verify to eight single
// mutations of what the router emitted: each must fail, with a message naming
// the wire or net that was touched (or, for the counter, the counter).
func TestVerifyMutations(t *testing.T) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	routed := NewRouter(c.Clone(), Options{Seed: 7})
	if _, err := routed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := routed.Verify(); err != nil {
		t.Fatalf("clean route: %v", err)
	}
	// find returns the first wire pick accepts.
	find := func(rt *Router, pick func(i int, w *metrics.Wire) bool) int {
		for i := range rt.Wires {
			if pick(i, &rt.Wires[i]) {
				return i
			}
		}
		t.Fatal("primary2 has no wire to mutate this way")
		return -1
	}
	hasBoth := func(rt *Router, net, x, row int32) bool {
		return slices.ContainsFunc(pinsAt(rt, net, x, row), func(p *circuit.Pin) bool { return p.Side == circuit.Both })
	}
	wire := func(i int) string { return fmt.Sprintf("wire %d ", i) }
	net := func(n int32) string { return fmt.Sprintf("net %d ", n) }
	for _, tc := range []struct {
		name   string
		mutate func(rt *Router) (want string)
	}{
		{"drop a wire", func(rt *Router) string {
			n := rt.Wires[100].Net
			rt.Wires = slices.Delete(rt.Wires, 100, 101)
			return net(n)
		}},
		{"duplicate a wire", func(rt *Router) string {
			// Over its successor in the same net, so every count still holds.
			i := find(rt, func(i int, w *metrics.Wire) bool {
				return i+1 < len(rt.Wires) && rt.Wires[i+1].Net == w.Net
			})
			rt.Wires[i+1] = rt.Wires[i]
			return net(rt.Wires[i].Net)
		}},
		{"relabel a wire's net", func(rt *Router) string {
			rt.Wires[100].Net++
			return net(rt.Wires[100].Net - 1)
		}},
		{"move an endpoint off every pin", func(rt *Router) string {
			rt.Wires[100].AX += 100_000
			return wire(100)
		}},
		{"fixed wire in a channel one endpoint cannot reach", func(rt *Router) string {
			i := find(rt, func(_ int, w *metrics.Wire) bool { return !w.Switchable && w.Channel >= 2 })
			rt.Wires[i].Channel -= 2
			return wire(i)
		}},
		{"switchable wire outside Row and Row+1", func(rt *Router) string {
			i := find(rt, func(_ int, w *metrics.Wire) bool { return w.Switchable })
			rt.Wires[i].Channel = rt.Wires[i].Row() + 2
			return wire(i)
		}},
		{"Switchable on a wire between non-Both pins", func(rt *Router) string {
			i := find(rt, func(_ int, w *metrics.Wire) bool {
				return !w.Switchable && w.ARow == w.BRow && !hasBoth(rt, w.Net, w.AX, w.ARow)
			})
			rt.Wires[i].Switchable = true
			return wire(i)
		}},
		{"bump ForcedEdges", func(rt *Router) string {
			rt.ForcedEdges++
			return "forced edges recorded"
		}},
	} {
		rt := *routed
		rt.Wires = slices.Clone(routed.Wires)
		want := tc.mutate(&rt)
		err := rt.Verify()
		if err == nil {
			t.Errorf("%s: Verify accepted it", tc.name)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, want)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}
