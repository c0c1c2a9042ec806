package main

import (
	"testing"
	"time"
)

func TestSlowdownIsTheMedianOfTheNearestProbes(t *testing.T) {
	sp := &speedProbe{}
	if got := sp.slowdown(time.Second); got != 1 {
		t.Errorf("no probes: slowdown %g, want 1", got)
	}
	// Ten probes 10 ms apart: the first five at reference speed, one of
	// them interrupted, the last five 1.5 times slower.
	for i := 0; i < 10; i++ {
		took := referenceProbe
		switch {
		case i == 2:
			took *= 20
		case i >= 5:
			took = took * 3 / 2
		}
		sp.at = append(sp.at, time.Duration(i)*10*time.Millisecond)
		sp.took = append(sp.took, took)
	}
	for at, want := range map[time.Duration]float64{
		0:                     1,   // before the first probe: the first five
		20 * time.Millisecond: 1,   // probes 0-4; the interrupted one is outvoted
		45 * time.Millisecond: 1.5, // probes 3-7: three of five are slow
		80 * time.Millisecond: 1.5,
		time.Second:           1.5, // after the last probe: the last five
	} {
		if got := sp.slowdown(at); got != want {
			t.Errorf("slowdown(%v) = %g, want %g", at, got, want)
		}
	}
}

func TestIdleSpacesTheProbes(t *testing.T) {
	sp := newSpeedProbe()
	sp.idle()
	sp.idle() // a moment later: skipped
	if len(sp.took) != 1 || sp.took[0] <= 0 {
		t.Fatalf("two idles in a row recorded %v, want one probe", sp.took)
	}
	time.Sleep(probeEvery)
	sp.idle()
	if len(sp.took) != 2 || sp.at[1] <= sp.at[0] {
		t.Errorf("probes %v at %v, want two in order", sp.took, sp.at)
	}
}

func TestTimeAtReferenceSpeed(t *testing.T) {
	got, err := timeAtReferenceSpeed(func() error { time.Sleep(20 * time.Millisecond); return errTest })
	if err != errTest {
		t.Errorf("the step's error is lost: %v", err)
	}
	// The box is somewhere between 4 times faster and 10 times slower
	// than the reference box.
	if got < 0.002 || got > 0.08 {
		t.Errorf("20 ms step reported as %g s", got)
	}
}
