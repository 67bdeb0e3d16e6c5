package query

import (
	"math"
	"testing"

	"onex/internal/dataset"
)

func TestPatienceBoundsGroupMining(t *testing.T) {
	d := dataset.ECG.Scaled(0.15).Generate(3)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	// Loose threshold → few, huge groups: the case the patience cut exists
	// for.
	pBounded := buildEngine(t, d, 0.6, []int{32}, Options{Patience: 8})
	pExhaust := buildEngine(t, d, 0.6, []int{32}, Options{Patience: -1})

	q := append([]float64(nil), d.Series[1].Values[10:42]...)
	for i := range q {
		q[i] = q[i]*0.9 + 0.05 // out-of-dataset style query
	}
	mB, trB, err := pBounded.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	mE, trE, err := pExhaust.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if trB.MembersTested >= trE.MembersTested {
		t.Errorf("patience did not reduce work: %d vs %d members", trB.MembersTested, trE.MembersTested)
	}
	// Exhaustive verification can only be equal or better.
	if mE.Dist > mB.Dist+1e-12 {
		t.Errorf("exhaustive %v worse than bounded %v", mE.Dist, mB.Dist)
	}
	// The bounded walk's pivot ordering keeps it close to exhaustive.
	if mB.Dist > mE.Dist+0.05 {
		t.Errorf("bounded walk much worse: %v vs %v", mB.Dist, mE.Dist)
	}
}

func TestPatienceDefaultApplied(t *testing.T) {
	d := dataset.ItalyPower.Scaled(0.3).Generate(2)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	// Patience 0 must behave as DefaultPatience, not unlimited: construct a
	// large single group (huge ST) and verify the member walk stops.
	p := buildEngine(t, d, 5, []int{8}, Options{})
	total := 0
	for _, g := range p.Base().Entry(8).Groups {
		total += g.Count()
	}
	if total < DefaultPatience*3 {
		t.Skipf("group too small (%d) to exercise the cut", total)
	}
	q := make([]float64, 8)
	for i := range q {
		q[i] = 2 + float64(i) // far from all data → nothing improves
	}
	_, tr, err := p.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MembersTested > 3*DefaultPatience {
		t.Errorf("patience default not applied: tested %d members of %d", tr.MembersTested, total)
	}
}

func TestNegativePatienceIsExhaustive(t *testing.T) {
	d := dataset.ItalyPower.Scaled(0.3).Generate(2)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	p := buildEngine(t, d, 5, []int{8}, Options{Patience: -1})
	total := 0
	for _, g := range p.Base().Entry(8).Groups {
		total += g.Count()
	}
	q := make([]float64, 8)
	for i := range q {
		q[i] = math.Sin(float64(i))
	}
	_, tr, err := p.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	// With one group (huge ST) and no patience cut, every member is
	// visited.
	if len(p.Base().Entry(8).Groups) == 1 && tr.MembersTested != total {
		t.Errorf("exhaustive walk tested %d of %d members", tr.MembersTested, total)
	}
}
