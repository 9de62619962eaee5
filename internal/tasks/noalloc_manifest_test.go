package tasks

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// noallocSpec records one function's place in the zero-alloc contract:
// whether the declaration itself carries //atm:noalloc, and how many
// of its inline closures do.
type noallocSpec struct {
	decl     bool
	closures int
}

// noallocContract is the single source of truth for which hot paths of
// this package are under the zero-allocation contract. Three things
// are tied to it:
//
//   - the //atm:noalloc directives in the source, enforced statically
//     by the noalloc analyzer (make lint) — the consistency test below
//     fails if the directives and this table drift apart;
//   - TestExecZeroAllocSteadyState, which asserts the runtime
//     allocation counts these directives promise (and must skip under
//     -race, where detector instrumentation allocates — the static
//     contract and this consistency test keep running there);
//   - reviewers deciding whether a new hot-path function needs the
//     directive: if it is called per period, it belongs here.
var noallocContract = map[string]noallocSpec{
	// The Tasks 2-3 replay's staleness test and its per-dirty-aircraft
	// fallback.
	"detectScratch.stale": {decl: true},
	"dirtyInteracts":      {decl: true},
	// Task 1: the persistent body of its element-wise phases (expected
	// positions, commit, wrap), and the box search every executor
	// shares — Prepare's per-radar body, the row read and the all-N
	// row fill behind both.
	"corrJob.Chunk": {decl: true},
	"boxJob.Chunk":  {decl: true},
	"BoxHits.Row":   {decl: true},
	"appendBoxRow":  {decl: true},
	// Tasks 2-3, batch.go: the one pair scan, the runner's parallel
	// scan body, and the in-place step of Algorithm 2 that the runner
	// and the AP's detection program share.
	"Scan":           {decl: true},
	"scanJob.Chunk":  {decl: true},
	"ResolveInPlace": {decl: true},
	// The data-parallel executors' steps: the snapshot step of
	// Algorithm 2 (snapshot.go), per track, and Task 1's census
	// arbitration (census.go), per radar or aircraft.
	"Snapshot.Detect":  {decl: true},
	"Snapshot.Resolve": {decl: true},
	"Snapshot.Commit":  {decl: true},
	"Census.Count":     {decl: true},
	"Census.Claim":     {decl: true},
	"Census.Arbitrate": {decl: true},
	"Census.Finalize":  {decl: true},
}

// TestNoallocManifestMatchesDirectives parses this package's sources
// (no type checking, so it runs under -race) and checks that the
// //atm:noalloc directives match noallocContract exactly, in both
// directions.
func TestNoallocManifestMatchesDirectives(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]noallocSpec)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		// Index every //atm:noalloc comment by position.
		var marks []token.Pos
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "atm:noalloc" {
					marks = append(marks, c.Pos())
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				// Methods are keyed Type.Method.
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			spec := noallocSpec{}
			for _, pos := range marks {
				switch {
				case fd.Doc != nil && pos >= fd.Doc.Pos() && pos < fd.Doc.End():
					spec.decl = true
				case fd.Body != nil && pos > fd.Body.Pos() && pos < fd.Body.End():
					spec.closures++
				}
			}
			if spec.decl || spec.closures > 0 {
				got[name] = spec
			}
		}
	}
	for name, want := range noallocContract {
		g, ok := got[name]
		if !ok {
			t.Errorf("noallocContract lists %s but the source carries no //atm:noalloc for it", name)
			continue
		}
		if g != want {
			t.Errorf("%s: source has %+v, noallocContract says %+v", name, g, want)
		}
	}
	for name := range got {
		if _, ok := noallocContract[name]; !ok {
			t.Errorf("source annotates %s with //atm:noalloc but noallocContract does not list it; add it so the runtime assertion covers it", name)
		}
	}
}
