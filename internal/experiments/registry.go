package experiments

import (
	"time"

	"github.com/pcelisp/pcelisp/internal/metrics"
	"github.com/pcelisp/pcelisp/internal/runner"
)

// Experiment is one entry of the reproduction's evaluation suite. An
// experiment is defined by its cell decomposition: Build returns the
// independent units of work (one simulated world each) plus the merge
// that folds their results into paper-style tables. Run and RunWorkers
// are thin serial-or-parallel dispatchers over that decomposition.
type Experiment struct {
	// ID is the experiment identifier ("E1" ... "E13").
	ID string
	// Title describes what it measures.
	Title string
	// Claim ties it to the paper.
	Claim string
	// Build returns the experiment's cells in canonical table order at
	// the given scale (quick = the test-suite settings), and the merge
	// folding cell results into tables.
	Build func(seed int64, quick bool) ([]Cell, MergeFunc)
}

// Cells exposes the experiment's cell decomposition without running it.
func (e Experiment) Cells(seed int64, quick bool) []Cell {
	cells, _ := e.Build(seed, quick)
	return cells
}

// Run executes the experiment serially and returns its tables — the
// historical monolithic entry point, kept as a dispatcher over the cells.
func (e Experiment) Run(seed int64, quick bool) []*metrics.Table {
	return e.RunWorkers(seed, quick, runner.Serial)
}

// RunWorkers fans the experiment's independent cells across a worker pool
// (runner.Auto sizes it to GOMAXPROCS) and merges the results in
// canonical order. For a given seed the rendered tables are byte-identical
// to Run's, whatever the worker count.
func (e Experiment) RunWorkers(seed int64, quick bool, workers int) []*metrics.Table {
	cells, merge := e.Build(seed, quick)
	return merge(runCells(e.ID, cells, workers))
}

// RunCPs is RunWorkers restricted to cells whose control plane is in
// keep; cells not tied to a CP always run. The merge sees nil results for
// skipped cells and omits their rows. An empty keep set runs everything.
func (e Experiment) RunCPs(seed int64, quick bool, workers int, keep []CP) []*metrics.Table {
	cells, merge := e.Build(seed, quick)
	if len(keep) == 0 {
		return merge(runCells(e.ID, cells, workers))
	}
	want := make(map[CP]bool, len(keep))
	for _, cp := range keep {
		want[cp] = true
	}
	var selected []Cell
	var position []int
	for i, c := range cells {
		if c.CP == "" || want[c.CP] {
			selected = append(selected, c)
			position = append(position, i)
		}
	}
	values := runCells(e.ID, selected, workers)
	full := make([]interface{}, len(cells))
	for i, v := range values {
		full[position[i]] = v
	}
	return merge(full)
}

// All returns the experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "E1",
			Title: "Packet loss during mapping resolution",
			Claim: "claim (i): no drops or queueing during resolution",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				domains := 6
				if quick {
					domains = 3
				}
				return e1Experiment(seed, domains, 10, 20*time.Millisecond)
			},
		},
		{
			ID:    "E2",
			Title: "TCP connection setup latency",
			Claim: "weakness W2 / claim (ii): setup inflates by Tmap (or an RTO) without the PCE",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				domains := 6
				if quick {
					domains = 3
				}
				return e2Experiment(seed, domains)
			},
		},
		{
			ID:    "E3",
			Title: "Mapping readiness within DNS time",
			Claim: "claim (ii): (TDNS + Tmap)/TDNS ~= 1",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				domains, flows := 6, 60
				if quick {
					domains, flows = 3, 15
				}
				return e3Experiment(seed, domains, flows)
			},
		},
		{
			ID:    "E4",
			Title: "Upstream/downstream traffic engineering",
			Claim: "claim (iii): both directions engineered by re-pushing mappings",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				remotes := 4
				if quick {
					remotes = 2
				}
				return e4Experiment(seed, remotes)
			},
		},
		{
			ID:    "E5",
			Title: "Control-plane overhead",
			Claim: "comparison against ALT/CONS/NERD/MS-MR message and state cost",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				domains := 8
				if quick {
					domains = 4
				}
				return e5Experiment(seed, domains)
			},
		},
		{
			ID:    "E6",
			Title: "Two-way mapping resolution time",
			Claim: "ETR multicast completes both directions on the first data packet",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				trials := 5
				if quick {
					trials = 2
				}
				return e6Experiment(seed, trials)
			},
		},
		{
			ID:    "E7",
			Title: "Scalability with domain count",
			Claim: "substrate comparison: where each control plane's cost grows",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				counts := []int{8, 16, 32}
				if quick {
					counts = []int{4, 8}
				}
				return e7Experiment(seed, counts, 5)
			},
		},
		{
			ID:    "E8",
			Title: "Robustness ablations",
			Claim: "race margin, PCE-failure fallback, queue-palliative memory",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				trials, burst := 10, 8
				if quick {
					trials, burst = 3, 4
				}
				aCells, aMerge := e8aExperiment(seed, trials)
				bCells, bMerge := e8bExperiment(seed)
				cCells, cMerge := e8cExperiment(seed, burst)
				cells := make([]Cell, 0, len(aCells)+len(bCells)+len(cCells))
				cells = append(cells, aCells...)
				cells = append(cells, bCells...)
				cells = append(cells, cCells...)
				na, nb := len(aCells), len(bCells)
				merge := func(results []interface{}) []*metrics.Table {
					var out []*metrics.Table
					out = append(out, aMerge(results[:na])...)
					out = append(out, bMerge(results[na:na+nb])...)
					out = append(out, cMerge(results[na+nb:])...)
					return out
				}
				return cells, merge
			},
		},
		{
			ID:    "E9",
			Title: "Map-cache scalability under Zipf/Poisson load",
			Claim: "Coras et al.: miss rate vs cache size is the scaling question; sweep capacity x eviction policy x control plane",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				aCells, aMerge := e9aExperiment(seed, quick)
				bCells, bMerge := e9bExperiment(seed, quick)
				cells := make([]Cell, 0, len(aCells)+len(bCells))
				cells = append(cells, aCells...)
				cells = append(cells, bCells...)
				na := len(aCells)
				merge := func(results []interface{}) []*metrics.Table {
					var out []*metrics.Table
					out = append(out, aMerge(results[:na])...)
					out = append(out, bMerge(results[na:])...)
					return out
				}
				return cells, merge
			},
		},
		{
			ID:    "E10",
			Title: "Failure injection and reconvergence",
			Claim: "probe-fed mapping pushes reconverge in seconds; pull caches blackhole until TTL expiry",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				return e10Experiment(seed, quick)
			},
		},
		{
			ID:    "E11",
			Title: "Closed-loop inbound TE under congestion",
			Claim: "load-driven weight recomputation reaches remote encapsulators in one RTT via mapping pushes; pull planes wait out TTLs",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				return e11Experiment(seed, quick)
			},
		},
		{
			ID:    "E12",
			Title: "Miss rate vs cache capacity at internet scale",
			Claim: "Coras et al. power law reproduced on a sharded 100k-prefix/1M-EID world",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				return e12Experiment(seed, quick)
			},
		},
		{
			ID:    "E13",
			Title: "Adversarial robustness: poisoning and flooding",
			Claim: "open pull planes are poisonable without nonce+signature defenses; the provisioned PCECP channel is not, and its flood exposure is the bounded PCED service",
			Build: func(seed int64, quick bool) ([]Cell, MergeFunc) {
				return e13Experiment(seed, quick)
			},
		},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
