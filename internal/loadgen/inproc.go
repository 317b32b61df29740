package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"swrec/internal/api"
	"swrec/internal/attack"
	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
)

// InProc is a hermetic swrecd: the scenario community (with attacks
// injected) served by a real engine behind the real API handler, plus a
// second clean build of the same community for before/after confinement
// measurement. It deliberately holds no community pointer — the engine
// owns epochs (snapshotpin) — only the plain ID lists the resolver and
// the measures need.
type InProc struct {
	Handler  http.Handler
	Baseline http.Handler // same seed, no attacks; nil when no attacks
	Engine   *engine.Engine
	Pipeline *ingest.Pipeline
	Resolver *Resolver
	Honest   []model.AgentID
	Attacks  []*attack.Result
}

// Close flushes and shuts down the write pipeline.
func (p *InProc) Close() error {
	if p.Pipeline != nil {
		return p.Pipeline.Close()
	}
	return nil
}

func engineOptions() core.Options {
	return core.Options{
		Alpha: 0.5, AlphaSet: true,
		Metric: core.Appleseed,
		CF:     cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}
}

// topicSample picks up to 512 qualified topic paths, stride-spread so
// the sample covers the tree without holding all ~20k paths at 10⁵
// scale.
func topicSample(comm *model.Community) []string {
	tax := comm.Taxonomy()
	if tax == nil {
		return nil
	}
	topics := tax.Topics()
	const maxPaths = 512
	stride := len(topics) / maxPaths
	if stride < 1 {
		stride = 1
	}
	paths := make([]string, 0, maxPaths)
	for i := 0; i < len(topics) && len(paths) < maxPaths; i += stride {
		paths = append(paths, tax.QualifiedName(topics[i]))
	}
	return paths
}

// BuildInProc generates the scenario community, injects the configured
// attacks, and serves it in-process. walDir enables the durable write
// path (required for write traffic; reads-only scenarios may pass "").
// ingestCfg tunes the pipeline (zero value = ingest defaults).
func BuildInProc(ctx context.Context, sc *Scenario, walDir string, ingestCfg ingest.Config) (*InProc, error) {
	cfg := sc.DatagenConfig()
	comm, _ := datagen.Generate(cfg)

	honest := append([]model.AgentID(nil), comm.Agents()...)
	products := append([]model.ProductID(nil), comm.Products()...)

	p := &InProc{
		Honest: honest,
		Resolver: &Resolver{
			AgentIDs:   honest,
			ProductIDs: products,
			TopicPaths: topicSample(comm),
			BaseHost:   cfg.BaseHost,
		},
	}
	for i, spec := range sc.Attacks {
		res, err := attack.Inject(comm, honest, spec, i)
		if err != nil {
			return nil, err
		}
		p.Attacks = append(p.Attacks, res)
	}

	eng, err := engine.New(comm, engineOptions(), engine.Config{})
	if err != nil {
		return nil, err
	}
	p.Engine = eng
	if sc.Warmup {
		eng.WarmupCtx(ctx, 0)
	}

	apiCfg := api.Config{ReadBudget: time.Duration(sc.ReadBudgetMS) * time.Millisecond}
	if walDir != "" {
		pipe, err := ingest.Open(eng, walDir, ingestCfg)
		if err != nil {
			return nil, err
		}
		p.Pipeline = pipe
		p.Handler = api.NewWithConfig(eng, pipe, apiCfg)
	} else {
		p.Handler = api.NewWithConfig(eng, nil, apiCfg)
	}

	if len(sc.Attacks) > 0 {
		// Clean twin for the before/after comparison. Same seed, same
		// generation, no attacks, read-only.
		clean, _ := datagen.Generate(cfg)
		cleanEng, err := engine.New(clean, engineOptions(), engine.Config{})
		if err != nil {
			return nil, fmt.Errorf("baseline engine: %w", err)
		}
		p.Baseline = api.NewWithConfig(cleanEng, nil, apiCfg)
	}
	return p, nil
}

// MeasureAttacks probes confinement for every injected attack through
// the API surface (the same one the traffic hits). Call it before the
// load phase mutates the community, so the numbers compare the attacked
// community against its clean twin rather than against churn.
//
// Each attack is measured twice: once under the serving default (the
// alpha-blend of trust and profile similarity over the bounded
// neighborhood, reported as the embedded Confinement) and once with
// weighting pinned to pure trust via the API's alpha=1 override
// (TrustGated). The Spec bounds are asserted against the default-blend
// numbers — the configuration that ships is the one that must confine
// an attack — while the trust-gated numbers are drift-tracked by
// benchjson, so a regression in either mode is caught.
func (p *InProc) MeasureAttacks(sc *Scenario) ([]AttackReport, error) {
	if len(p.Attacks) == 0 {
		return nil, nil
	}
	base := Client{T: HandlerTarget{Handler: p.Baseline}}
	attacked := Client{T: HandlerTarget{Handler: p.Handler}}
	baseTrust := Client{T: base.T, Query: "alpha=1"}
	attackedTrust := Client{T: attacked.T, Query: "alpha=1"}
	reports := make([]AttackReport, 0, len(p.Attacks))
	for _, res := range p.Attacks {
		sample := attack.SampleHonest(p.Honest, res.Victim, sc.Samples)
		blend, err := attack.Measure(base, attacked, res, sample, sc.TopK)
		if err != nil {
			return nil, err
		}
		gated, err := attack.Measure(baseTrust, attackedTrust, res, sample, sc.TopK)
		if err != nil {
			return nil, err
		}
		reports = append(reports, AttackReport{
			Confinement: blend,
			TrustGated:  gated,
			Spec:        res.Spec,
			Violations:  blend.Violations(res.Spec),
		})
	}
	return reports, nil
}
