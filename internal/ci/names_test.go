package ci

import "testing"

func TestBounderNames(t *testing.T) {
	want := map[string]Bounder{
		"hoeffding": HoeffdingSerfling{},
		"bernstein": EmpiricalBernsteinSerfling{},
		"anderson":  AndersonDKW{},
	}
	for name, b := range want {
		if b.Name() != name {
			t.Errorf("Name() = %q, want %q", b.Name(), name)
		}
	}
}
