package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// recognizedPrefixes are the subsystem tags an error message may open
// with. The convention: an error is prefixed once, at its origin; wrappers
// add context with %w and inherit the prefix from the cause.
var recognizedPrefixes = []string{
	"tintin", "typecheck", "engine", "storage", "wal", "sched", "obs",
	"harness", "tpch", "sqltypes", "sqlparser", "sqlgen", "logic", "edc",
	"baseline", "difftest", "lint", "linttest", "frame",
}

// ErrPrefixAnalyzer enforces the error-message convention across
// internal/...: every errors.New / fmt.Errorf must either open with a
// recognized subsystem prefix ("tintin: ...", "wal: ...") or wrap a cause
// via %w (context wrappers inherit the origin's prefix through the chain).
// A bare message like "unknown table t" gives an operator no way to tell
// which subsystem rejected their input.
var ErrPrefixAnalyzer = &analysis.Analyzer{
	Name: "errprefix",
	Doc: "error constructors in internal/... must carry a subsystem prefix or wrap via %w\n\n" +
		"Recognized prefixes: " + strings.Join(recognizedPrefixes, ", ") + ".\n" +
		"The prefix belongs at the error's origin; wrapping context\n" +
		"(\"assertion %s: %w\") needs none of its own.",
	Requires: []*analysis.Analyzer{AllowAnalyzer, inspect.Analyzer},
	Run:      runErrPrefix,
}

func runErrPrefix(pass *analysis.Pass) (interface{}, error) {
	if !strings.Contains(pass.Pkg.Path()+"/", "internal/") {
		return nil, nil // convention scoped to the internal tree
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || fn.Pkg() == nil || len(call.Args) == 0 {
			return
		}
		var wrapOK bool
		switch {
		case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
			wrapOK = true
		default:
			return
		}
		if inTestFile(pass, call.Pos()) {
			return // test scaffolding errors are not user-facing
		}
		tv, ok := pass.TypesInfo.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return // dynamic format string: nothing to check statically
		}
		msg := constant.StringVal(tv.Value)
		if wrapOK && strings.Contains(msg, "%w") {
			return
		}
		if hasRecognizedPrefix(msg) {
			return
		}
		reportf(pass, call.Pos(),
			"error message %q lacks a subsystem prefix (%s, ...) and does not wrap a cause via %%w",
			abbreviate(msg), recognizedPrefixes[0]+":")
	})
	return nil, nil
}

// hasRecognizedPrefix reports whether msg opens with "<subsystem>: ".
func hasRecognizedPrefix(msg string) bool {
	for _, p := range recognizedPrefixes {
		if strings.HasPrefix(msg, p+": ") || msg == p+":" {
			return true
		}
	}
	return false
}

// inTestFile reports whether pos is inside a _test.go file.
func inTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// abbreviate keeps diagnostics one-line for long format strings.
func abbreviate(s string) string {
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}
