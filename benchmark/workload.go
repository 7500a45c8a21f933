package main

import (
	"math"
	"math/rand"
	"time"

	"pnptuner/internal/registry"
)

// Workload names, in the order `-workload all` runs them.
const (
	wlServeSteady = "serve-steady"
	wlServeLarge  = "serve-large"
	wlTuneRefresh = "tune-refresh"
	wlTrainLOOCV  = "train-loocv"
)

var workloadNames = []string{wlServeSteady, wlServeLarge, wlTuneRefresh, wlTrainLOOCV}

// Nominal op rates on the 2-core reference box. A run's op count is
// rate × -seconds, fixed before the run starts, so counts and quality
// repeat exactly for a seed; only serve-steady, the open loop, is
// paced by the clock.
const (
	steadyRate  = 200 // offered predicts/s, Poisson
	largeRate   = 60  // closed-loop predicts/s of ~1.2 k-node graphs
	tuneRate    = 400 // closed-loop mixed ops/s
	loocvRate   = 2   // offline folds/s (one fold is ~0.5 s of training)
	tuneBudget  = 48  // executions granted per tune session
	tuneMeasure = 8   // measure_budget of the measured half
	numBig      = 8   // generated regions of serve-large
	loocvEpochs = 6
)

// tuneRefresh is the replicas' measure→learn configuration on
// tune-refresh: low enough that every key retrains a few times per
// run, high enough that retrains do not dominate it.
var tuneRefresh = registry.RefreshConfig{Threshold: 512, CanaryWindow: 16, Epochs: 4}

type opKind uint8

const (
	opPredict opKind = iota
	opTuneSync
	opTuneAsync
	opFold
)

// op is one operation of a workload's fixed sequence.
type op struct {
	kind   opKind
	key    int // index into fleet.keys (opFold: into loocvKeys)
	region int // index into the workload's regions (opFold: into its apps)
	// tune ops only
	strategy string
	measured bool
	seed     uint64
	// due is the scheduled send time since the phase began (open loop).
	due time.Duration
}

// Strategy mix of tune-refresh per 200 ops: 40 % predicts, and the
// tune 60 % split gnn 30 / hybrid 30 / opentuner 15 / bliss 25. Sorted
// by cost, predict+gnn+hybrid fill quantiles 0–76 % and bliss the top
// 15 %, so the median reads the cheap class and p90 reads BLISS.
var tuneMix = []struct {
	strategy string // "" = predict
	per200   int
}{
	{"", 80}, {"gnn", 36}, {"hybrid", 36}, {"opentuner", 18}, {"bliss", 30},
}

// pairDeck deals (region, key) pairs so that every pair is used equally
// often: a full shuffled deck of regions×keys pairs is dealt out before
// the next one is shuffled. Quality metrics then depend on the seed
// only through the last partial deck.
type pairDeck struct {
	rng           *rand.Rand
	regions, keys int
	deck          []int
}

func (d *pairDeck) next() (region, key int) {
	if len(d.deck) == 0 {
		d.deck = d.rng.Perm(d.regions * d.keys)
	}
	p := d.deck[0]
	d.deck = d.deck[1:]
	return p / d.keys, p % d.keys
}

// predictOps is the serve-* sequence: n predicts over regions × keys.
func predictOps(seed int64, n, regions, keys int) []op {
	pairs := &pairDeck{rng: rand.New(rand.NewSource(seed)), regions: regions, keys: keys}
	ops := make([]op, n)
	for i := range ops {
		r, k := pairs.next()
		ops[i] = op{kind: opPredict, region: r, key: k}
	}
	return ops
}

// poissonSchedule stamps ops with Poisson arrival times at rate per
// second, rescaled so the last arrival falls exactly at n/rate: the
// offered load is the same for every seed, the gaps are not.
func poissonSchedule(seed int64, ops []op, rate float64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	at := make([]float64, len(ops))
	sum := 0.0
	for i := range at {
		sum += rng.ExpFloat64()
		at[i] = sum
	}
	span := float64(len(ops)) / rate
	for i := range ops {
		ops[i].due = time.Duration(at[i] / sum * span * float64(time.Second))
	}
}

// tuneOps is the tune-refresh sequence: shuffled decks of 200 ops in
// the tuneMix proportions. Within a strategy, sync/async and
// replay/measured alternate so each of the four combinations gets a
// quarter of its sessions.
func tuneOps(seed int64, n, regions, keys int) []op {
	rng := rand.New(rand.NewSource(seed))
	pairs := &pairDeck{rng: rng, regions: regions, keys: keys}
	variant := map[string]int{}
	var ops []op
	for len(ops) < n {
		var deck []op
		for _, m := range tuneMix {
			for i := 0; i < m.per200; i++ {
				o := op{kind: opPredict, strategy: m.strategy}
				if m.strategy != "" {
					v := variant[m.strategy]
					variant[m.strategy]++
					o.kind = opTuneSync
					if v&1 == 1 {
						o.kind = opTuneAsync
					}
					o.measured = v&2 == 2
				}
				deck = append(deck, o)
			}
		}
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for i := range deck {
			deck[i].region, deck[i].key = pairs.next()
			if deck[i].kind != opPredict {
				deck[i].seed = rng.Uint64() | 1 // 0 would mean "the region's own seed"
			}
		}
		ops = append(ops, deck...)
	}
	return ops[:n]
}

// loocvKeys are train-loocv's strata: machine-major, objective-minor.
var loocvKeys = []registry.Key{
	{Machine: "haswell", Objective: registry.ObjectiveTime},
	{Machine: "haswell", Objective: registry.ObjectiveEDP},
	{Machine: "skylake", Objective: registry.ObjectiveTime},
	{Machine: "skylake", Objective: registry.ObjectiveEDP},
}

// foldOps is the train-loocv sequence: the first n folds of the deal
// order — Haswell before Skylake, applications in figure order, both
// objectives of an application together — run in an order shuffled by
// seed. The set of folds does not depend on the seed, because LOOCV
// quality differs so much between applications that a seeded sample
// of them would swamp oracle_frac_geomean's bound.
func foldOps(seed int64, n, apps int) []op {
	if max := len(loocvKeys) * apps; n > max {
		n = max
	}
	ops := make([]op, n)
	for i := range ops {
		machine, rest := i/(2*apps), i%(2*apps)
		ops[i] = op{kind: opFold, key: 2*machine + rest%2, region: rest / 2}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// opCount is rate × seconds, at least 1.
func opCount(rate int, seconds float64) int {
	return int(math.Max(1, math.Round(float64(rate)*seconds)))
}
