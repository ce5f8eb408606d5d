package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"tintin/internal/baseline"
	"tintin/internal/core"
	"tintin/internal/engine"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// The correctness gates. Each returns nil when the program's output is
// right and an error describing the first wrong thing otherwise; every
// error counts as a failed operation and fails the run.

// checkVerdict gates one SafeCommit outcome: a clean batch must commit, and
// a poisoned one must be rejected with exactly its injected orders, all
// reported against atLeastOneLineItem and nothing else.
func checkVerdict(b *Batch, res *core.CommitResult) error {
	if len(b.Poisoned) == 0 {
		if !res.Committed {
			return fmt.Errorf("clean %s rejected: %s", b.Label, describe(res.Violations))
		}
		return nil
	}
	if res.Committed {
		return fmt.Errorf("poisoned %s committed", b.Label)
	}
	var got []int64
	for _, v := range res.Violations {
		if v.Assertion != "atleastonelineitem" {
			return fmt.Errorf("poisoned %s: unexpected violation of %s", b.Label, v.Assertion)
		}
		col := -1
		for j, c := range v.Columns {
			if i := strings.LastIndexByte(c, '.'); i >= 0 {
				c = c[i+1:]
			}
			if strings.EqualFold(c, "o_orderkey") {
				col = j
			}
		}
		if col < 0 {
			return fmt.Errorf("poisoned %s: violation of %s has no o_orderkey column (%v)", b.Label, v.View, v.Columns)
		}
		for _, r := range v.Rows {
			got = append(got, r[col].Int())
		}
	}
	want := append([]int64(nil), b.Poisoned...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("poisoned %s: violating orders %v, want %v", b.Label, got, want)
	}
	return nil
}

func describe(vs []core.Violation) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, "; ")
}

// checkRecheck gates a full non-incremental recheck: the database the
// incremental checker accepted must satisfy every assertion.
func checkRecheck(res *baseline.Result) error {
	if len(res.Violations) == 0 {
		return nil
	}
	names := make([]string, len(res.Violations))
	for i, v := range res.Violations {
		names[i] = fmt.Sprintf("%s (%d rows)", v.Assertion, len(v.Rows))
	}
	return fmt.Errorf("full recheck finds violations: %s", strings.Join(names, ", "))
}

// checkPlanCache gates the plan cache over a timed loop: every view
// execution must reuse a compiled plan.
func checkPlanCache(before, after engine.PlanCacheStats) error {
	misses, fallbacks := after.Misses-before.Misses, after.Fallbacks-before.Fallbacks
	if misses != 0 || fallbacks != 0 {
		return fmt.Errorf("plan cache: %d misses and %d fallbacks during the timed loop, want 0", misses, fallbacks)
	}
	return nil
}

// tableSum is an order-independent digest of one table's rows.
type tableSum struct {
	Rows     int
	Sum, Xor uint64
}

// fingerprint digests every base table of db, independent of row order.
func fingerprint(db *storage.DB) map[string]tableSum {
	out := map[string]tableSum{}
	for _, name := range db.BaseTableNames() {
		var ts tableSum
		db.MustTable(name).Scan(func(r sqltypes.Row) bool {
			h := fnv.New64a()
			h.Write([]byte(r.Key()))
			v := h.Sum64()
			ts.Rows++
			ts.Sum += v
			ts.Xor ^= v
			return true
		})
		out[name] = ts
	}
	return out
}

// checkSameState gates a recovery: the recovered base tables must equal the
// live ones.
func checkSameState(what string, live, got map[string]tableSum) error {
	if len(live) != len(got) {
		return fmt.Errorf("%s: %d base tables, want %d", what, len(got), len(live))
	}
	names := make([]string, 0, len(live))
	for n := range live {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if live[n] != got[n] {
			return fmt.Errorf("%s: table %s differs (%d rows, want %d)", what, n, got[n].Rows, live[n].Rows)
		}
	}
	return nil
}
