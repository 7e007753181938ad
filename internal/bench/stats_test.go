package bench

import "testing"

func TestMean(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", m)
	}
	if m := Mean([]float64{3}); m != 3 {
		t.Fatalf("Mean single = %v, want 3", m)
	}
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", m)
	}
}

func TestMinMax(t *testing.T) {
	if lo, hi := MinMax(nil); lo != 0 || hi != 0 {
		t.Fatalf("MinMax(nil) = %v, %v, want 0, 0", lo, hi)
	}
	if lo, hi := MinMax([]float64{7}); lo != 7 || hi != 7 {
		t.Fatalf("MinMax single = %v, %v", lo, hi)
	}
	if lo, hi := MinMax([]float64{2, -1, 5, 3}); lo != -1 || hi != 5 {
		t.Fatalf("MinMax = %v, %v, want -1, 5", lo, hi)
	}
}
