package engine

import (
	"testing"

	"repro/internal/stream"
)

// plannedSegRepo exposes a segmentable repository through a segment source
// whose PlanSegments returns whatever plan the test injects and records the
// target chunk count the engine asked for.
type plannedSegRepo struct {
	*stream.FuncRepo
	plan   []int
	target int
}

func (r *plannedSegRepo) BeginSegmented() (stream.SegmentSource, bool) {
	src, ok := r.FuncRepo.BeginSegmented()
	return &plannedSegSource{SegmentSource: src, repo: r}, ok
}

type plannedSegSource struct {
	stream.SegmentSource
	repo *plannedSegRepo
}

func (s *plannedSegSource) PlanSegments(target int) []int {
	s.repo.target = target
	return s.repo.plan
}

// A valid source plan must be honored — arbitrary uneven chunks — with the
// delivered stream identical to sequential at every worker count. Malformed
// plans (wrong endpoints, non-monotone, nil) must fall back to the uniform
// cut, silently, with the stream still intact: a plan is a hint, never a
// correctness input.
func TestPlannerPlansHonoredAndValidated(t *testing.T) {
	const m = 100
	plans := map[string][]int{
		"valid-uneven":   {0, 1, 50, 51, 99, m},
		"valid-one":      {0, m},
		"nil":            nil,
		"missing-zero":   {1, m},
		"missing-end":    {0, m - 1},
		"non-monotone":   {0, 50, 50, m},
		"decreasing":     {0, 60, 40, m},
		"single-element": {0},
	}
	for name, plan := range plans {
		for _, workers := range []int{1, 2, 3} {
			repo := &plannedSegRepo{FuncRepo: segRepo(testInstance(32, m)), plan: plan}
			e := New(Options{Workers: workers, BatchSize: 16})
			rec := &recorder{}
			if err := e.Run(repo, rec); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			rec.verify(t, m, 16)
			if workers > 1 && repo.target != (m+16-1)/16 {
				t.Fatalf("%s workers=%d: engine hinted target %d, want ceil(m/batch)=%d",
					name, workers, repo.target, (m+16-1)/16)
			}
		}
	}
}

func TestValidBounds(t *testing.T) {
	cases := []struct {
		b    []int
		m    int
		want bool
	}{
		{[]int{0, 5, 10}, 10, true},
		{[]int{0, 10}, 10, true},
		{[]int{0}, 0, true},
		{nil, 10, false},
		{[]int{0}, 10, false},
		{[]int{1, 10}, 10, false},
		{[]int{0, 9}, 10, false},
		{[]int{0, 5, 5, 10}, 10, false},
		{[]int{0, 7, 3, 10}, 10, false},
	}
	for _, c := range cases {
		if got := validBounds(c.b, c.m); got != c.want {
			t.Fatalf("validBounds(%v, %d) = %v, want %v", c.b, c.m, got, c.want)
		}
	}
}

// planBounds must produce the uniform cut when the source returns no plan —
// and the uniform cut must tile [0, m] exactly for awkward m/target ratios,
// in at most target chunks of at most ceil(m/target) sets.
func TestPlanBoundsUniformFallback(t *testing.T) {
	src, ok := segRepo(testInstance(8, 10)).BeginSegmented()
	if !ok {
		t.Fatal("FuncRepo must segment")
	}
	for _, tc := range []struct{ m, target, chunks int }{
		{10, 4, 4}, {10, 6, 5}, {10, 2, 2}, {10, 1, 1}, {10, 100, 10}, {1, 1, 1}, {0, 4, 0},
	} {
		b := planBounds(src, tc.m, tc.target)
		if !validBounds(b, tc.m) {
			t.Fatalf("m=%d target=%d: invalid bounds %v", tc.m, tc.target, b)
		}
		if len(b)-1 != tc.chunks {
			t.Fatalf("m=%d target=%d: %d chunks, want %d", tc.m, tc.target, len(b)-1, tc.chunks)
		}
		for i := 1; i < len(b); i++ {
			if w := b[i] - b[i-1]; w > (tc.m+tc.target-1)/tc.target {
				t.Fatalf("m=%d target=%d: chunk %d has width %d", tc.m, tc.target, i-1, w)
			}
		}
	}
}
