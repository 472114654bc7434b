// Package c45 implements a C4.5-style decision-tree classifier (Quinlan,
// 1993): information-gain-ratio splits over continuous attributes with
// midpoint thresholds, and pessimistic-error pruning. The paper uses C4.5
// to characterize when an overlay path is likely to improve throughput,
// finding that a simultaneous RTT reduction of at least 10.5% and loss
// reduction of at least 12.1% predicts a gain; the reproduction applies
// this package to the same derived features (Section V-B).
package c45

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is one training example: continuous attribute values plus a class
// label.
type Sample struct {
	// Attrs holds the attribute values, indexed consistently across the
	// data set.
	Attrs []float64
	// Label is the class (e.g. "improved" / "not-improved").
	Label string
}

// Config controls tree induction.
type Config struct {
	// MaxDepth caps tree depth (default 12).
	MaxDepth int
	// Prune enables pessimistic-error pruning (default on via DefaultConfig).
	Prune bool
}

// C4.5's standard settings.
const (
	// minLeaf is the minimum number of samples in a leaf.
	minLeaf = 2
	// pruneCF is the pruning confidence factor.
	pruneCF = 0.25
)

// DefaultConfig returns C4.5's standard settings.
func DefaultConfig() Config {
	return Config{MaxDepth: 12, Prune: true}
}

// Tree is a trained decision tree.
type Tree struct {
	root      *node
	attrNames []string
}

// node is an internal or leaf node.
type node struct {
	// Leaf fields.
	leaf  bool
	label string
	n     int // training samples reaching this node
	errs  int // training misclassifications at this node's majority label

	// Split fields (attr <= threshold goes left).
	attr      int
	threshold float64
	left      *node
	right     *node
}

// ErrNoData is returned when training data is empty or degenerate.
var ErrNoData = errors.New("c45: no training data")

// Train builds a tree from the samples. attrNames names the attribute
// columns (used by Rules and String); its length must match the samples'
// attribute count.
func Train(samples []Sample, attrNames []string, cfg Config) (*Tree, error) {
	if len(samples) == 0 {
		return nil, ErrNoData
	}
	for i, s := range samples {
		if len(s.Attrs) != len(attrNames) {
			return nil, fmt.Errorf("c45: sample %d has %d attrs, want %d", i, len(s.Attrs), len(attrNames))
		}
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	root := build(samples, cfg, 0)
	if cfg.Prune {
		prune(root, pruneCF)
	}
	return &Tree{root: root, attrNames: append([]string(nil), attrNames...)}, nil
}

// Classify returns the predicted label for the attribute vector.
func (t *Tree) Classify(attrs []float64) (string, error) {
	if len(attrs) != len(t.attrNames) {
		return "", fmt.Errorf("c45: got %d attrs, want %d", len(attrs), len(t.attrNames))
	}
	n := t.root
	for !n.leaf {
		if attrs[n.attr] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label, nil
}

// Accuracy returns the fraction of samples the tree classifies correctly.
func (t *Tree) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if lbl, err := t.Classify(s.Attrs); err == nil && lbl == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// Rule is one root-to-leaf path: a conjunction of threshold conditions
// implying a label.
type Rule struct {
	// Conds are rendered conditions like "dRTT <= -0.105".
	Conds []string
	// Label is the predicted class.
	Label string
	// Support is the number of training samples reaching the leaf.
	Support int
}

// String renders the rule as "cond AND cond => label (n=support)".
func (r Rule) String() string {
	if len(r.Conds) == 0 {
		return fmt.Sprintf("true => %s (n=%d)", r.Label, r.Support)
	}
	return fmt.Sprintf("%s => %s (n=%d)", strings.Join(r.Conds, " AND "), r.Label, r.Support)
}

// Rules extracts every root-to-leaf path as a rule, most-supported first.
func (t *Tree) Rules() []Rule {
	var out []Rule
	var walk func(n *node, conds []string)
	walk = func(n *node, conds []string) {
		if n.leaf {
			out = append(out, Rule{
				Conds:   append([]string(nil), conds...),
				Label:   n.label,
				Support: n.n,
			})
			return
		}
		name := t.attrNames[n.attr]
		walk(n.left, append(conds, fmt.Sprintf("%s <= %.4g", name, n.threshold)))
		walk(n.right, append(conds, fmt.Sprintf("%s > %.4g", name, n.threshold)))
	}
	walk(t.root, nil)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Support > out[j].Support })
	return out
}

// Depth returns the tree depth (a single leaf has depth 1).
func (t *Tree) Depth() int {
	var d func(*node) int
	d = func(n *node) int {
		if n == nil {
			return 0
		}
		if n.leaf {
			return 1
		}
		l, r := d(n.left), d(n.right)
		if r > l {
			l = r
		}
		return l + 1
	}
	return d(t.root)
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int {
	var c func(*node) int
	c = func(n *node) int {
		if n == nil {
			return 0
		}
		if n.leaf {
			return 1
		}
		return c(n.left) + c(n.right)
	}
	return c(t.root)
}

// build grows the tree recursively.
func build(samples []Sample, cfg Config, depth int) *node {
	label, count := majority(samples)
	leaf := &node{leaf: true, label: label, n: len(samples), errs: len(samples) - count}
	if count == len(samples) || depth >= cfg.MaxDepth || len(samples) < 2*minLeaf {
		return leaf
	}
	attr, threshold, gain := bestSplit(samples)
	if attr < 0 || gain <= 0 {
		return leaf
	}
	var left, right []Sample
	for _, s := range samples {
		if s.Attrs[attr] <= threshold {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	if len(left) < minLeaf || len(right) < minLeaf {
		return leaf
	}
	return &node{
		attr:      attr,
		threshold: threshold,
		n:         len(samples),
		label:     label,
		errs:      leaf.errs,
		left:      build(left, cfg, depth+1),
		right:     build(right, cfg, depth+1),
	}
}

// bestSplit scans every attribute and candidate threshold, returning the
// split with the highest gain ratio (C4.5's criterion, which normalizes
// information gain by the split's intrinsic information to avoid biasing
// toward fragmenting splits). Gain ratio is only considered for splits
// whose raw gain is at least the average positive gain, per Quinlan.
func bestSplit(samples []Sample) (int, float64, float64) {
	if len(samples) == 0 {
		return -1, 0, 0
	}
	baseEntropy := entropy(samples)
	nAttrs := len(samples[0].Attrs)

	type cand struct {
		attr      int
		threshold float64
		gain      float64
		ratio     float64
	}
	var cands []cand
	var gainSum float64

	values := make([]float64, len(samples))
	for attr := 0; attr < nAttrs; attr++ {
		for i, s := range samples {
			values[i] = s.Attrs[attr]
		}
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)

		// Candidate thresholds: midpoints between distinct consecutive
		// values.
		prevDistinct := sorted[0]
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == prevDistinct {
				continue
			}
			thr := (prevDistinct + sorted[i]) / 2
			prevDistinct = sorted[i]
			gain, ratio, nl, nr := splitGain(samples, attr, thr, baseEntropy)
			if nl < minLeaf || nr < minLeaf || gain <= 0 {
				continue
			}
			cands = append(cands, cand{attr, thr, gain, ratio})
			gainSum += gain
		}
	}
	if len(cands) == 0 {
		return -1, 0, 0
	}
	avgGain := gainSum / float64(len(cands))
	best := cand{attr: -1}
	for _, c := range cands {
		if c.gain+1e-12 < avgGain {
			continue
		}
		if best.attr < 0 || c.ratio > best.ratio {
			best = c
		}
	}
	if best.attr < 0 {
		// Fall back to the highest raw gain.
		for _, c := range cands {
			if best.attr < 0 || c.gain > best.gain {
				best = c
			}
		}
	}
	return best.attr, best.threshold, best.gain
}

// splitGain returns (information gain, gain ratio, left size, right size)
// for splitting at attr <= thr.
func splitGain(samples []Sample, attr int, thr, baseEntropy float64) (float64, float64, int, int) {
	var left, right []Sample
	for _, s := range samples {
		if s.Attrs[attr] <= thr {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	n := float64(len(samples))
	pl, pr := float64(len(left))/n, float64(len(right))/n
	gain := baseEntropy - pl*entropy(left) - pr*entropy(right)
	split := 0.0
	if pl > 0 {
		split -= pl * math.Log2(pl)
	}
	if pr > 0 {
		split -= pr * math.Log2(pr)
	}
	ratio := 0.0
	if split > 0 {
		ratio = gain / split
	}
	return gain, ratio, len(left), len(right)
}

func entropy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	counts := make(map[string]int)
	for _, s := range samples {
		counts[s.Label]++
	}
	e := 0.0
	n := float64(len(samples))
	for _, c := range counts {
		p := float64(c) / n
		e -= p * math.Log2(p)
	}
	return e
}

func majority(samples []Sample) (string, int) {
	counts := make(map[string]int)
	for _, s := range samples {
		counts[s.Label]++
	}
	best, bestN := "", -1
	// Deterministic tie-break: lexicographically smallest label.
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		if counts[l] > bestN {
			best, bestN = l, counts[l]
		}
	}
	return best, bestN
}

// prune applies C4.5's pessimistic subtree-replacement pruning: replace a
// subtree with a leaf when the leaf's estimated error (upper confidence
// bound on the training error) is no worse than the subtree's.
func prune(n *node, cf float64) {
	if n == nil || n.leaf {
		return
	}
	prune(n.left, cf)
	prune(n.right, cf)
	subtreeErr := estimatedErrors(n.left, cf) + estimatedErrors(n.right, cf)
	leafErr := ucbErrors(n.n, n.errs, cf)
	if leafErr <= subtreeErr+1e-9 {
		n.leaf = true
		n.left, n.right = nil, nil
	}
}

// estimatedErrors sums the pessimistic error estimates over a subtree's
// leaves.
func estimatedErrors(n *node, cf float64) float64 {
	if n == nil {
		return 0
	}
	if n.leaf {
		return ucbErrors(n.n, n.errs, cf)
	}
	return estimatedErrors(n.left, cf) + estimatedErrors(n.right, cf)
}

// ucbErrors is C4.5's upper confidence bound on the error count of a leaf
// with n samples and e training errors, using the normal approximation to
// the binomial (the standard U_cf(e, n) estimate).
func ucbErrors(n, e int, cf float64) float64 {
	if n == 0 {
		return 0
	}
	z := normalQuantile(1 - cf)
	f := float64(e) / float64(n)
	nn := float64(n)
	num := f + z*z/(2*nn) + z*math.Sqrt(f/nn-f*f/nn+z*z/(4*nn*nn))
	den := 1 + z*z/nn
	return nn * num / den
}

// normalQuantile returns the standard normal quantile via the
// Beasley-Springer-Moro rational approximation.
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail regions.
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
