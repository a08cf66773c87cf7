package main

import (
	"fmt"
	"time"

	"websnap/internal/nn"
	"websnap/internal/partition"
	"websnap/internal/tensor"
)

// quietReplays is how many serial requests the quiet replay measures.
const quietReplays = 3

// profile measures, with nothing else in flight, the layers that a
// concurrent window cannot attribute: the workload's own plans run through
// ExecPlan.ForwardTimed, a cold plan compile, the partition analysis, and
// the heap the snapshot calls allocate per request.
func (b *base) profile() (map[string]float64, error) {
	out := map[string]float64{}
	if err := b.profileNN(out); err != nil {
		return nil, err
	}
	if b.spec.partial() {
		var times []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := chooseSplit(b.spec.model, b.spec.prec); err != nil {
				return nil, err
			}
			times = append(times, ms(time.Since(start)))
		}
		out["partition.analyze_ms"] = median(times)
	}
	if b.lastTraced != nil {
		qt := newTracer()
		qt.allocs = true
		for i := 0; i < quietReplays; i++ {
			img := i % len(b.pool.images)
			rs := qt.begin("request")
			o, err := b.lastTraced.classify(b.pool.images[img], rs)
			rs.end()
			if err != nil {
				return nil, fmt.Errorf("quiet replay: %w", err)
			}
			if !b.pool.check(img, o) {
				return nil, fmt.Errorf("quiet replay: wrong result %q on image %d", o.label, img)
			}
		}
		out["snapshot.alloc_kb"] = qt.snapshotAllocKB()
	}
	return out, nil
}

// splitChoice is a partition point: its layer index and label.
type splitChoice struct {
	index int
	label string
}

// chooseSplit picks the partition point a privacy-constrained
// core.Session picks: the cheapest split that keeps at least one layer on
// the client.
func chooseSplit(model *nn.Network, prec nn.Precision) (splitChoice, error) {
	plan, err := partition.Analyze(model, analyzeConfig(prec))
	if err != nil {
		return splitChoice{}, err
	}
	c, err := plan.Choose(true)
	if err != nil {
		return splitChoice{}, err
	}
	return splitChoice{index: c.Point.Index, label: c.Point.Label}, nil
}

// profileNN times every step of the workload's plans: the full network
// (self time and GFLOP/s per layer type), the front and rear halves at the
// split, a cold compile, and allocations per forward.
func (b *base) profileNN(out map[string]float64) error {
	model, prec := b.spec.model, b.spec.prec
	shape := model.InputShape()
	in, err := tensor.FromSlice(append([]float32(nil), b.pool.images[0]...), shape...)
	if err != nil {
		return err
	}
	full, err := model.PlanPrec(prec, shape...)
	if err != nil {
		return err
	}
	infos, err := model.Describe()
	if err != nil {
		return err
	}
	flops := map[string]int64{}
	for _, li := range infos {
		flops[li.Name] = li.FLOPs
	}
	perType := map[string][]float64{}
	walls, err := timedForwards(full, in, perType)
	if err != nil {
		return err
	}
	out["nn.forward_ms"] = median(walls)
	typeFlops := map[string]int64{}
	for _, st := range full.Steps() {
		typeFlops[string(st.Type)] += flops[st.Name]
	}
	for _, t := range layerTypes {
		self := median(perType[t])
		out["nn.self_ms."+t] = self
		if self > 0 {
			out["nn.gflops."+t] = float64(typeFlops[t]) / (self * 1e6)
		}
	}
	m0 := mallocs()
	const allocRuns = 3
	for i := 0; i < allocRuns; i++ {
		if _, err := full.Forward(in); err != nil {
			return err
		}
	}
	out["nn.allocs_per_forward"] = float64(mallocs()-m0) / allocRuns

	cold, err := b.fresh()
	if err != nil {
		return err
	}
	if !b.spec.partial() {
		start := time.Now()
		if _, err := cold.PlanPrec(prec, shape...); err != nil {
			return err
		}
		out["nn.plan_compile_ms"] = ms(time.Since(start))
		return nil
	}
	front, rear, err := cold.Split(b.spec.split)
	if err != nil {
		return err
	}
	start := time.Now()
	frontPlan, err := front.PlanPrec(prec, shape...)
	if err != nil {
		return err
	}
	featShape := frontPlan.OutputShape()
	rearPlan, err := rear.PlanPrec(prec, featShape...)
	if err != nil {
		return err
	}
	out["nn.plan_compile_ms"] = ms(time.Since(start))
	fw, err := timedForwards(frontPlan, in, nil)
	if err != nil {
		return err
	}
	feat, err := frontPlan.Forward(in)
	if err != nil {
		return err
	}
	rw, err := timedForwards(rearPlan, feat, nil)
	if err != nil {
		return err
	}
	out["nn.front_ms"] = median(fw)
	out["nn.rear_ms"] = median(rw)
	return nil
}

// timedForwards runs p through ForwardTimed at least 3 times and for about
// a second, returning each forward's wall time in ms; perType, when
// non-nil, collects each forward's summed step time per layer type.
func timedForwards(p *nn.ExecPlan, in *tensor.Tensor, perType map[string][]float64) ([]float64, error) {
	steps := p.Steps()
	times := make([]time.Duration, len(steps))
	var walls []float64
	start := time.Now()
	for r := 0; r < 50 && (r < 3 || time.Since(start) < time.Second); r++ {
		t := time.Now()
		if _, err := p.ForwardTimed(in, times); err != nil {
			return nil, err
		}
		walls = append(walls, ms(time.Since(t)))
		if perType == nil {
			continue
		}
		sums := map[string]float64{}
		for i, st := range steps {
			sums[string(st.Type)] += ms(times[i])
		}
		for _, t := range layerTypes {
			perType[t] = append(perType[t], sums[t])
		}
	}
	return walls, nil
}
