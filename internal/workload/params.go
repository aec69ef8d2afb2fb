package workload

// Parameter sweeps from Tables II and III. Bold (default) entries are not
// recoverable from the paper text, so defaults are the middle value of each
// sweep, as documented in DESIGN.md §3.

// Table II — synthetic data.
var (
	SyntheticTaskCounts   = []int{1000, 2000, 3000, 4000, 5000}
	SyntheticWorkerCounts = []int{3000, 4000, 5000, 6000, 7000}
	SyntheticMus          = []float64{50, 75, 100, 125, 150}
	SyntheticSigmas       = []float64{10, 15, 20, 25, 30}
	Epsilons              = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	ScalabilitySizes      = []int{20000, 40000, 60000, 80000, 100000}
)

// Defaults for synthetic sweeps.
const (
	DefaultNumTasks   = 3000
	DefaultNumWorkers = 5000
	DefaultMu         = 100.0
	DefaultSigma      = 20.0
	DefaultEpsilon    = 0.6
)

// Table III — real (Chengdu) data.
var RealWorkerCounts = []int{6000, 7000, 8000, 9000, 10000}

// DefaultRealNumWorkers is the middle of the Table III sweep.
const DefaultRealNumWorkers = 8000

// Reachable-radius ranges for the matching-size case study (Sec. IV-C).
// Real-data radii of 500–1000 m equal 10–20 units of the 50 m Chengdu grid.
var (
	SyntheticReach = [2]float64{10, 20}
	RealReach      = [2]float64{10, 20}
)
