package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

// PreparedQuery is a view whose evaluation plan — scope resolution, conjunct
// placement, probe selection and subquery plans — was built once, so
// repeated executions (one per safeCommit) touch only data, never the SQL
// text or the planner.
//
// A plan is cacheable when every FROM item in the query tree is a base
// table: base tables are stable objects, so the plan's table pointers and
// column offsets survive arbitrary data changes. Queries reading other
// views fall back to planning per execution (view results are materialized
// during planning and would go stale).
type PreparedQuery struct {
	eng  *Engine
	name string
	sel  *sqlparser.Select

	// branches holds one planned exec per UNION branch; nil when the query
	// is not cacheable.
	branches []*exec
	// dedupe / agg are the per-branch DISTINCT-or-union-distinct and
	// aggregate-projection flags, precomputed off the hot path.
	dedupe []bool
	agg    []bool
	cols   []string

	schemaVersion uint64
	noProbes      bool
}

// PlanCacheStats counts plan-cache traffic on an engine.
type PlanCacheStats struct {
	// Hits is the number of view executions served by a reusable compiled
	// plan.
	Hits int `json:"hits"`
	// Misses counts plan compilations (first use of a view).
	Misses int `json:"misses"`
	// Invalidations counts cached plans discarded because the schema
	// changed, the view was redefined, or the probe setting flipped.
	Invalidations int `json:"invalidations"`
	// Fallbacks counts executions of non-cacheable views (queries reading
	// other views), which re-plan every time despite the cache entry.
	Fallbacks int `json:"fallbacks"`
}

// planCounters is the engine-internal, atomically updated form of
// PlanCacheStats. The prepare path runs on the commit coordinator while
// stats readers (GaugeFunc exports, \stats, concurrent Tool.Stats() calls)
// may load from any goroutine, so plain ints would race.
type planCounters struct {
	hits, misses, invalidations, fallbacks atomic.Int64
}

// PlanCacheStats returns the engine's plan-cache counters. The exported
// shape stays the plain-int struct whose JSON encoding \explain pins.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          int(e.planStats.hits.Load()),
		Misses:        int(e.planStats.misses.Load()),
		Invalidations: int(e.planStats.invalidations.Load()),
		Fallbacks:     int(e.planStats.fallbacks.Load()),
	}
}

// Cacheable reports whether executions reuse the compiled plan (false for
// queries that read other views).
func (p *PreparedQuery) Cacheable() bool { return p.branches != nil }

// Name returns the view name the plan was prepared for; trace spans and
// pprof labels use it to attribute work to views.
func (p *PreparedQuery) Name() string { return p.name }

// PrepareView returns the compiled plan for a stored view, building and
// caching it on first use and transparently re-preparing when the table set
// changed, the view was redefined, or index probing was toggled.
func (e *Engine) PrepareView(name string) (*PreparedQuery, error) {
	name = strings.ToLower(name)
	sel := e.db.View(name)
	if sel == nil {
		return nil, fmt.Errorf("engine: no view %s", name)
	}
	if p, ok := e.plans[name]; ok {
		if p.sel == sel && p.schemaVersion == e.db.SchemaVersion() && p.noProbes == e.DisableIndexProbes {
			if p.branches != nil {
				e.planStats.hits.Add(1)
			} else {
				e.planStats.fallbacks.Add(1)
			}
			return p, nil
		}
		delete(e.plans, name)
		e.planStats.invalidations.Add(1)
	}
	p, err := e.prepare(name, sel)
	if err != nil {
		return nil, err
	}
	e.planStats.misses.Add(1)
	if e.plans == nil {
		e.plans = make(map[string]*PreparedQuery)
	}
	e.plans[name] = p
	return p, nil
}

// InvalidatePlans drops every cached plan (used when a caller mutates state
// the engine cannot observe).
func (e *Engine) InvalidatePlans() {
	e.planStats.invalidations.Add(int64(len(e.plans)))
	e.plans = nil
}

// ForgetPlan drops the cached plan for one view; callers use it when they
// drop the view itself.
func (e *Engine) ForgetPlan(name string) {
	name = strings.ToLower(name)
	if _, ok := e.plans[name]; ok {
		delete(e.plans, name)
		e.planStats.invalidations.Add(1)
	}
}

func (e *Engine) prepare(name string, sel *sqlparser.Select) (*PreparedQuery, error) {
	p := &PreparedQuery{
		eng:           e,
		name:          name,
		sel:           sel,
		schemaVersion: e.db.SchemaVersion(),
		noProbes:      e.DisableIndexProbes,
	}
	for _, t := range sqlparser.TablesReferenced(sel) {
		if e.db.Table(t) == nil && e.db.View(t) != nil {
			return p, nil // reads another view: plan per execution
		}
	}
	unionDistinct := false
	for s := sel; s != nil; s = s.Union {
		if s.Union != nil && !s.UnionAll {
			unionDistinct = true
		}
	}
	for cur := sel; cur != nil; cur = cur.Union {
		ex, err := e.newExec(cur, nil)
		if err != nil {
			return nil, err
		}
		if err := ex.planSubqueries(); err != nil {
			return nil, err
		}
		cols := ex.outputColumns()
		if p.cols == nil {
			p.cols = cols
		} else if len(p.cols) != len(cols) {
			return nil, fmt.Errorf("engine: UNION branches have different arity (%d vs %d)",
				len(p.cols), len(cols))
		}
		p.branches = append(p.branches, ex)
		p.dedupe = append(p.dedupe, cur.Distinct || unionDistinct)
		p.agg = append(p.agg, hasAggregates(cur))
	}
	return p, nil
}

// planSubqueries eagerly builds the exec for every subquery reachable from
// this block's projections and WHERE clause, so a cached plan never plans
// lazily at execution time. The walk stops at each subquery boundary; the
// recursive call covers its interior.
func (ex *exec) planSubqueries() error {
	var werr error
	visit := func(e sqlparser.Expr) bool {
		if werr != nil {
			return false
		}
		var q *sqlparser.Select
		switch x := e.(type) {
		case *sqlparser.Exists:
			q = x.Query
		case *sqlparser.InSubquery:
			q = x.Query
		case *sqlparser.ScalarSubquery:
			q = x.Query
		default:
			return true
		}
		for cur := q; cur != nil; cur = cur.Union {
			sub, err := ex.subExec(cur)
			if err != nil {
				werr = err
				return false
			}
			if err := sub.planSubqueries(); err != nil {
				werr = err
				return false
			}
		}
		return false
	}
	for _, it := range ex.sel.Columns {
		sqlparser.WalkExpr(it.Expr, visit)
	}
	sqlparser.WalkExpr(ex.sel.Where, visit)
	return werr
}

// reset clears the per-execution memo state of a plan (and of its cached
// subquery plans) so a fresh run re-reads current table data. It also
// clears skipProject: a panic recovered above the engine (the scheduler's
// committer does this and keeps cached plans alive) can unwind past
// runExists' restore, and a cached exec stuck in existence mode would emit
// nil rows forever after.
func (ex *exec) reset() {
	ex.inMemo = nil
	ex.skipProject = false
	//tintin:allow nodeterminism each sub-plan reset is independent; order never reaches results
	for _, sub := range ex.subs {
		sub.reset()
	}
}

// EnsureIndexes builds, at preparation time, every hash index the plan's
// probes will use — base and event tables alike — so executions always
// probe and never pay on-demand index construction.
func (p *PreparedQuery) EnsureIndexes() error {
	for _, ex := range p.branches {
		if err := ex.ensureProbeIndexes(); err != nil {
			return err
		}
	}
	return nil
}

func (ex *exec) ensureProbeIndexes() error {
	for k, ps := range ex.probes {
		src := ex.scope.srcs[k]
		if len(ps) == 0 || src.table == nil || ex.probeIdx[k] != nil {
			continue
		}
		idx, err := src.table.IndexOn(ex.probeOffs[k])
		if err != nil {
			return err
		}
		ex.probeIdx[k] = idx
	}
	//tintin:allow nodeterminism per-sub-plan index builds are independent; order only picks which error surfaces first
	for _, sub := range ex.subs {
		if err := sub.ensureProbeIndexes(); err != nil {
			return err
		}
	}
	return nil
}

// Query executes the prepared plan and materializes a fresh result.
func (p *PreparedQuery) Query() (*Result, error) {
	res := &Result{}
	if err := p.QueryInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// QueryInto executes the prepared plan into a caller-owned result, reusing
// res.Rows' capacity: the commit-time check loop passes the same Result
// every call, so the common no-violation check allocates no result storage
// at all. The rows appended alias live plan output; callers that keep them
// beyond the next execution must copy the slice (the rows themselves are
// immutable).
func (p *PreparedQuery) QueryInto(res *Result) error {
	return p.QueryLimitInto(0, res)
}

// QueryLimitInto is QueryInto with a row cap: limit > 0 stops execution as
// soon as that many rows have been collected, riding the exec machinery's
// early-exit path (the emit sink returning false). This is the FailFast
// commit check — a caller that only needs accept/reject stops at the first
// violating row instead of materializing every violation. limit <= 0 means
// no cap.
func (p *PreparedQuery) QueryLimitInto(limit int, res *Result) error {
	res.Rows = res.Rows[:0]
	if p.branches == nil {
		fresh, err := p.eng.query(p.sel, nil)
		if err != nil {
			return err
		}
		res.Columns = fresh.Columns
		res.Rows = append(res.Rows, fresh.Rows...)
		if limit > 0 && len(res.Rows) > limit {
			res.Rows = res.Rows[:limit]
		}
		return nil
	}
	res.Columns = p.cols
	var seen map[string]bool
	for i, ex := range p.branches {
		if limit > 0 && len(res.Rows) >= limit {
			break
		}
		ex.reset()
		if p.agg[i] {
			row, err := p.eng.runAggregate(ex, ex.sel)
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows, row)
			continue
		}
		dedupe := p.dedupe[i]
		if dedupe && seen == nil {
			seen = map[string]bool{}
		}
		err := ex.run(func(row sqltypes.Row) (bool, error) {
			if dedupe {
				k := row.Key()
				if seen[k] {
					return true, nil
				}
				seen[k] = true
			}
			res.Rows = append(res.Rows, row)
			return limit <= 0 || len(res.Rows) < limit, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// NonEmpty reports whether the prepared query yields any row, stopping at
// the first (mirroring Engine.exists).
func (p *PreparedQuery) NonEmpty() (bool, error) {
	if p.branches == nil {
		return p.eng.exists(p.sel, nil)
	}
	for _, ex := range p.branches {
		ex.reset()
		found, err := ex.runExists()
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}
