package circuit_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	metricspkg "parroute/internal/metrics"
	"parroute/internal/parallel"
	"parroute/internal/route"
)

// pointerField names the first field of t, searched through nested structs
// and arrays, whose kind makes the collector look at it: a pointer, slice,
// string, map, chan, func or interface. It returns "" for a type the
// collector never scans.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if f := t.Field(i); pointerField(f.Type) != "" {
				return f.Name + ": " + pointerField(f.Type)
			}
		}
	case reflect.Array:
		return pointerField(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return t.String()
	}
	return ""
}

// TestRecordsHoldNoPointers holds every per-element record a route keeps or
// streams by the thousand to a layout the collector skips: the circuit's
// rows, cells, pins and nets (their lists live in the circuit's flat
// arrays), the placed segments, step-4 nodes and wires, and the step
// messages. A pointer, slice, string, map, chan, func or interface field
// in any of them makes the collector mark every copy, element by element.
func TestRecordsHoldNoPointers(t *testing.T) {
	for _, v := range []any{
		circuit.Pin{}, circuit.Cell{}, circuit.Net{}, circuit.Row{},
		route.PlacedSeg{}, route.Node{}, metricspkg.Wire{},
		parallel.NodeMsg{}, parallel.CrossingMsg{}, parallel.FakePinSpec{},
	} {
		typ := reflect.TypeOf(v)
		if f := pointerField(typ); f != "" {
			t.Errorf("%v holds a field the collector scans: %s", typ, f)
		}
	}
}

// scanBytes returns the scannable heap after a full collection.
func scanBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// scanSlackKB is the room TestCircuitCopiesAddNoScanWork leaves over its
// measurement for the testing runtime's own garbage and a few circuit
// headers; a slice field back in Cell or Net adds hundreds of KB on top.
const scanMeasuredKB, scanSlackKB = 0, 64

// TestCircuitCopiesAddNoScanWork holds primary2 and two forks of it after
// feedthrough insertion, as a serial and a net-wise route do, and measures
// what they add to the heap a collection must scan: 895 KB with a slice
// header in every row, cell and net record and a string in every net, and
// -1 to 0 KB with the lists and names in flat arrays. It reads the
// runtime's counters, so it must not run in parallel with other tests.
func TestCircuitCopiesAddNoScanWork(t *testing.T) {
	before := scanBytes()
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	forks := make([]*circuit.Circuit, 2)
	for i := range forks {
		rt := route.NewRouter(c.Fork(), route.Options{Seed: uint64(i + 1), Workers: 1})
		ctx := context.Background()
		if err := errors.Join(rt.BuildTrees(ctx), rt.CoarseRoute(ctx), rt.InsertFeedthroughs()); err != nil {
			t.Fatal(err)
		}
		forks[i] = rt.C
	}
	after := scanBytes()
	runtime.KeepAlive(c)
	runtime.KeepAlive(forks)
	added := (int64(after) - int64(before)) / 1024
	t.Logf("primary2 and two forks after ft-insert add %d KB of scannable heap (%d → %d bytes)", added, before, after)
	if added > scanMeasuredKB+scanSlackKB {
		t.Errorf("primary2 and two forks add %d KB to the scanned heap, budget %d + %d KB: a record holds a pointer again",
			added, scanMeasuredKB, scanSlackKB)
	}
}
