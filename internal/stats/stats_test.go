package stats

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("mean wrong")
	}
}
