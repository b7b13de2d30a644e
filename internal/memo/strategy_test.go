package memo

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestFlatShape(t *testing.T) {
	s := Flat(5)
	if err := s.Validate(5); err != nil {
		t.Fatal(err)
	}
	if len(s.Children) != 5 || depth(s) != 2 || countLeaves(s) != 5 {
		t.Errorf("flat(5): children=%d depth=%d leaves=%d", len(s.Children), depth(s), countLeaves(s))
	}
}

func TestTwoGroupShape(t *testing.T) {
	s := TwoGroup(6, 2)
	if err := s.Validate(6); err != nil {
		t.Fatal(err)
	}
	if len(s.Children) != 2 {
		t.Fatalf("children = %d", len(s.Children))
	}
	if s.Children[0].Span() != 2 || s.Children[1].Span() != 4 {
		t.Errorf("group spans: %d, %d", s.Children[0].Span(), s.Children[1].Span())
	}
	if depth(s) != 3 {
		t.Errorf("depth = %d, want 3", depth(s))
	}
}

func TestTwoGroupSplitOneMakesLeafChild(t *testing.T) {
	s := TwoGroup(4, 1)
	if err := s.Validate(4); err != nil {
		t.Fatal(err)
	}
	if !s.Children[0].IsLeaf() {
		t.Error("left group of span 1 should be a leaf")
	}
}

func TestTwoGroupBadSplitPanics(t *testing.T) {
	for _, split := range []int{0, 4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("split=%d: want panic", split)
				}
			}()
			TwoGroup(4, split)
		}()
	}
}

func TestBalancedShapes(t *testing.T) {
	for n := 2; n <= 12; n++ {
		s := Balanced(n)
		if err := s.Validate(n); err != nil {
			t.Fatalf("balanced(%d): %v", n, err)
		}
		// Balanced binary: depth == ceil(log2 n) + 1.
		want := 1
		for span := 1; span < n; span *= 2 {
			want++
		}
		if got := depth(s); got != want {
			t.Errorf("balanced(%d): depth %d, want %d", n, got, want)
		}
		if got := countLeaves(s); got != n {
			t.Errorf("balanced(%d): %d leaves", n, got)
		}
	}
}

// depth returns the number of levels of s (a lone leaf has depth 1).
func depth(s *Strategy) int {
	d := 0
	for _, c := range s.Children {
		d = max(d, depth(c))
	}
	return d + 1
}

func countLeaves(s *Strategy) int {
	if s.IsLeaf() {
		return 1
	}
	n := 0
	for _, c := range s.Children {
		n += countLeaves(c)
	}
	return n
}

func TestValidateRejectsBadTrees(t *testing.T) {
	cases := map[string]*Strategy{
		"wrong root range": {Lo: 1, Hi: 4},
		"single child": {Lo: 0, Hi: 3, Children: []*Strategy{
			{Lo: 0, Hi: 3, Children: []*Strategy{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 3}}},
		}},
		"gap": {Lo: 0, Hi: 3, Children: []*Strategy{
			{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3},
		}},
		"overlap": {Lo: 0, Hi: 3, Children: []*Strategy{
			{Lo: 0, Hi: 2}, {Lo: 1, Hi: 3},
		}},
		"escape": {Lo: 0, Hi: 3, Children: []*Strategy{
			{Lo: 0, Hi: 1}, {Lo: 1, Hi: 4},
		}},
		"leaf with children": {Lo: 0, Hi: 2, Children: []*Strategy{
			{Lo: 0, Hi: 1, Children: []*Strategy{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}},
			{Lo: 1, Hi: 2},
		}},
		"incomplete": {Lo: 0, Hi: 4, Children: []*Strategy{
			{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2},
		}},
	}
	for name, s := range cases {
		n := 3
		if name == "incomplete" {
			n = 4
		}
		if err := s.Validate(n); err == nil {
			t.Errorf("%s: Validate accepted a malformed tree", name)
		}
	}
}

func TestBinaryFromSplitsMidpoint(t *testing.T) {
	s := BinaryFromSplits(4, func(lo, hi int) int { return (lo + hi) / 2 })
	if !s.Equal(Balanced(4)) {
		t.Errorf("midpoint splits != balanced: %s vs %s", s, Balanced(4))
	}
}

func TestBinaryFromSplitsBadSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range split")
		}
	}()
	BinaryFromSplits(3, func(lo, hi int) int { return lo })
}

func TestStringRendering(t *testing.T) {
	if got := Balanced(4).String(); got != "([0-1] [2-3])" {
		t.Errorf("balanced(4) = %q", got)
	}
	if got := Flat(3).String(); got != "(0 1 2)" {
		t.Errorf("flat(3) = %q", got)
	}
	if got := TwoGroup(5, 2).String(); got != "([0-1] [2-4])" {
		t.Errorf("2group(5,2) = %q", got)
	}
}

func TestEqual(t *testing.T) {
	if !Balanced(4).Equal(Balanced(4)) {
		t.Error("identical trees unequal")
	}
	if Balanced(4).Equal(Flat(4)) {
		t.Error("different trees equal")
	}
	// At n=3, TwoGroup(3,2) and Balanced(3) coincide.
	if !TwoGroup(3, 2).Equal(Balanced(3)) {
		t.Errorf("TwoGroup(3,2)=%s, Balanced(3)=%s should coincide", TwoGroup(3, 2), Balanced(3))
	}
}

// The mode order is part of the strategy: String names original modes,
// Equal tells orders apart (the identity order equals nil), and
// SweepOrder returns the order or the natural one.
func TestStrategyModeOrder(t *testing.T) {
	cases := []struct {
		s    *Strategy
		want string
	}{
		{inOrder(Balanced(4), []int{3, 1, 0, 2}), "([3,1] [0,2])"},
		{inOrder(Balanced(4), []int{2, 3, 0, 1}), "([2-3] [0-1])"},
		{inOrder(Flat(3), []int{2, 0, 1}), "(2 0 1)"},
		{inOrder(Balanced(5), []int{4, 1, 3, 0, 2}), "(([4,1] 3) [0,2])"},
		{inOrder(Balanced(4), []int{0, 1, 2, 3}), Balanced(4).String()},
	}
	for _, c := range cases {
		if err := c.s.Validate(c.s.Hi); err != nil {
			t.Fatal(err)
		}
		if got := c.s.String(); got != c.want {
			t.Errorf("order %v: String = %q, want %q", c.s.Modes, got, c.want)
		}
		if got := c.s.SweepOrder(); fmt.Sprint(got) != fmt.Sprint(c.s.Modes) {
			t.Errorf("SweepOrder = %v, want %v", got, c.s.Modes)
		}
	}
	if got := Balanced(3).SweepOrder(); fmt.Sprint(got) != "[0 1 2]" {
		t.Errorf("natural SweepOrder = %v", got)
	}
	if inOrder(Balanced(4), []int{3, 1, 0, 2}).Equal(Balanced(4)) {
		t.Error("trees over different orders equal")
	}
	if !inOrder(Balanced(4), []int{0, 1, 2, 3}).Equal(Balanced(4)) {
		t.Error("identity order unequal to the natural one")
	}
	if !inOrder(Flat(3), []int{2, 0, 1}).Equal(inOrder(Flat(3), []int{2, 0, 1})) {
		t.Error("identical ordered trees unequal")
	}
}

// Property: every constructor yields a valid strategy with n leaves.
func TestConstructorsValidProperty(t *testing.T) {
	f := func(nRaw, sRaw uint8) bool {
		n := 2 + int(nRaw%10)
		split := 1 + int(sRaw)%(n-1)
		for _, s := range []*Strategy{Flat(n), TwoGroup(n, split), Balanced(n)} {
			if s.Validate(n) != nil || countLeaves(s) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
