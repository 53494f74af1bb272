package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/workload"
)

// oracle answers queries in process from the same artifact the servers
// load, the reference every HTTP answer must equal bit for bit. Features
// come from profile.BuildAt with the artifact's recorded build settings,
// exactly as the server derives them.
type oracle struct {
	fp       string
	preds    map[core.Target]core.Predictor
	feats    map[string][]float64
	defaults []core.Target // the server's default selection
	telem    []core.Target // joins the selection when a query carries CE
}

func newOracle(ds *core.Dataset, labels []string) (*oracle, error) {
	size := workload.SizeProfile
	if ds.Build.Quick() {
		size = workload.SizeTest
	}
	o := &oracle{fp: ds.Fingerprint(), preds: map[core.Target]core.Predictor{}, feats: map[string][]float64{}}
	for _, d := range core.Descriptors() {
		if !d.Available(ds) {
			continue
		}
		p, err := core.Train(ds, d.Name, core.ModelKNN, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("oracle: train %s: %w", d.Name, err)
		}
		o.preds[d.Name] = p
		if d.NeedsTelemetry {
			o.telem = append(o.telem, d.Name)
		} else {
			o.defaults = append(o.defaults, d.Name)
		}
	}
	for _, l := range labels {
		spec, err := workload.FindSpec(l)
		if err != nil {
			return nil, err
		}
		res, err := profile.BuildAt(spec, size, ds.Build.Seed)
		if err != nil {
			return nil, fmt.Errorf("oracle: profile %s: %w", l, err)
		}
		o.feats[l] = res.Features
	}
	return o, nil
}

// expected is the reference answer to one query.
type expected struct {
	targets []core.Target
	preds   []core.Prediction
}

// answer predicts q the way the server's default selection does; withCE
// says whether the request carries the query's CE window.
func (o *oracle) answer(q *fleet.Query, withCE bool) (expected, error) {
	targets := append([]core.Target(nil), o.defaults...)
	cq := core.Query{Features: o.feats[q.Workload], TREFP: q.TREFP, VDD: q.VDD, TempC: q.TempC, Rank: core.RankDevice}
	if withCE && len(q.CE) > 0 {
		targets = append(targets, o.telem...)
		cq.CE = q.CE
	}
	e := expected{targets: targets}
	for _, t := range targets {
		cq.Target = t
		p, err := o.preds[t].Predict(cq)
		if err != nil {
			return e, err
		}
		e.preds = append(e.preds, p)
	}
	return e, nil
}

// check compares a /v2/predict response body against the reference: the
// same targets, every value and per-rank value equal in its bits, the same
// input sets. wantFP, when set, is the fingerprint the answer must carry.
func (e *expected) check(body []byte, wantFP string) error {
	var resp serve.PredictResponseV2
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	if wantFP != "" && resp.Fingerprint != wantFP {
		return fmt.Errorf("fingerprint %s, want %s", resp.Fingerprint, wantFP)
	}
	return e.checkItem(&resp.PredictItemV2)
}

func (e *expected) checkItem(item *serve.PredictItemV2) error {
	if len(item.Predictions) != len(e.targets) {
		return fmt.Errorf("%d targets answered, want %d", len(item.Predictions), len(e.targets))
	}
	for i, t := range e.targets {
		got, ok := item.Predictions[string(t)]
		if !ok {
			return fmt.Errorf("no %s answer", t)
		}
		want := e.preds[i]
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			return fmt.Errorf("%s = %v, want %v", t, got.Value, want.Value)
		}
		if len(got.ByRank) != len(want.ByRank) {
			return fmt.Errorf("%s has %d ranks, want %d", t, len(got.ByRank), len(want.ByRank))
		}
		for r := range got.ByRank {
			if math.Float64bits(got.ByRank[r]) != math.Float64bits(want.ByRank[r]) {
				return fmt.Errorf("%s rank %d = %v, want %v", t, r, got.ByRank[r], want.ByRank[r])
			}
		}
		if got.InputSet != int(want.Set) {
			return fmt.Errorf("%s input set %d, want %d", t, got.InputSet, want.Set)
		}
	}
	return nil
}

// predictFn is the in-process counterpart of policy.HTTPPredict: the same
// Prediction the live server's default selection yields, so a policy
// ledger driven by it must match the HTTP-driven one bit for bit.
func (o *oracle) predictFn() policy.PredictFn {
	return func(q *fleet.Query) (policy.Prediction, error) {
		e, err := o.answer(q, true)
		if err != nil {
			return policy.Prediction{}, err
		}
		var p policy.Prediction
		for i, t := range e.targets {
			switch t {
			case core.TargetWER:
				p.WER = e.preds[i].Value
			case core.TargetPUE:
				p.PUE = e.preds[i].Value
			case core.TargetUERisk:
				p.Risk, p.HasRisk = e.preds[i].Value, true
			}
		}
		return p, nil
	}
}
