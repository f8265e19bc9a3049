package lint

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Seams holds the architecture seams, one row of seamTable each: in each of
// the row's packages, a non-test file names (types.Info.Uses) a row's object
// only in one of its places, and a place with "=n" holds exactly n uses. A
// row naming an object or a "!file" that does not exist is itself a finding.
//
// An object is a package-level name, qualified by an import's name for
// another package's ("route", "sim.Proc.Sleep"), then a member ("member.ep")
// or every method ("T.*"); "simWait*" is a prefix, an import's name alone
// all its objects ("time"). A place is a file ("coll.go"), every file but
// one ("!transport.go"), a declaration ("route", "T.m", "World"), a prefix
// of one ("simWait*", "T.*"), or a method call's arguments ("sim.Env.Spawn()":
// a spawned process's body); a row without places allows no use. No
// directive allows seams: a seam moves only in this table.
//
// A row's name is its seam's: vocabulary (coll's protocol vocabulary, the
// runtime's one flag protocol, over state its team holds), core-sends (core's
// own inter-node sends), backend (the pgas Transport seam), helpers (route
// as the one charge; sim helpers do not block) and landing (only coll's boxes
// are written at issue, under the guard). SeamsOf runs one seam, so a
// package's test holds its seams in tier-1.
var Seams = seamsOver(seamTable)

// SeamsOf is Seams over the rows of one named seam.
func SeamsOf(name string) *Analyzer {
	var rows []seam
	for _, row := range seamTable {
		if row.name == name {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		panic("lint: no seam " + name)
	}
	return seamsOver(rows)
}

type seam struct{ name, pkg, objects, places, why string }

const flagCalls = "pgas.Flags pgas.NewFlags pgas.NewTeamFlags pgas.Image.WaitFlagGE pgas.Image.NotifyAdd pgas.Image.NotifySet pgas.Image.SetLocal"

var seamTable = []seam{
	// Outside coll.go only the protocol vocabulary (Box, Arrivals, Gate, Inject,
	// Notify, Stamp, Publish, Relay) touches flags; Next returns a parity.
	{"vocabulary", "cafteams/internal/coll", flagCalls + " State.flags State.expect member.expect", "coll.go", "a flag touched outside the protocol vocabulary"},
	{"vocabulary", "cafteams/internal/coll", "member.ep", "coll.go", "the episode number outside coll.go"},
	// FORM TEAM's exchange is core.Form's allgather: team splits locally.
	{"vocabulary", "cafteams/internal/core cafteams/internal/team", flagCalls, "", "a flag touched outside the protocol vocabulary"},
	// Collective state is its team's (GetState, NewBox): none lives in the
	// world, which would outlive the team.
	{"vocabulary", "cafteams/internal/coll cafteams/internal/core", "pgas.LookupOrCreate pgas.NewFlags pgas.NewCoarray pgas.NewEvents", "", "a world object in collective code"},
	// core's own inter-node sends: the scan's chain and the scatter's done
	// wave; any other is a coll body's among the node leaders.
	{"core-sends", "cafteams/internal/core", "pgas.ViaAuto pgas.ViaConduit", "scanChain coll.State.Publish()=1", "an inter-node send of core's own"},
	// A backend's state is its transport and the types its file declares, in
	// that file with its clock and kernel; World's one backend handle is its
	// Transport, which holds its own *World.
	{"backend", "cafteams/internal/pgas", "simTransport simImage delivery", "simbackend.go", "backend state outside its file"},
	{"backend", "cafteams/internal/pgas", "nativeTransport nativeCell", "nativebackend.go", "backend state outside its file"},
	{"backend", "cafteams/internal/pgas", "time", "nativebackend.go", "the wall clock outside the native backend"},
	{"backend", "cafteams/internal/pgas", "sim cluster", "simbackend.go IsKillUnwind", "the simulator outside the sim backend"},
	{"backend", "cafteams/internal/pgas", "Transport", "World=1 newWorld simbackend.go nativebackend.go", "a backend handle beside World's Transport"},
	{"backend", "cafteams/internal/pgas", "World", "!transport.go", "a Transport method takes a *World"},
	// Immediate decides whether a payload is copied at issue or at delivery,
	// once in each typed put front end; a Get copies after the read on both.
	{"backend", "cafteams/internal/pgas", "Transport.Immediate", "Put=1 PutThenNotify=1", "the copy fork outside the typed put front end"},
	// Paths arrive resolved (transport.go): the sim transport resolves none.
	{"helpers", "cafteams/internal/pgas", "Image.resolveVia", "!simbackend.go", "the sim transport resolves a resolved path"},
	// Helpers compute, transport methods block: a block in route or deliver* is
	// a frame under every parked image (bench.TestStackBudget); a spawned
	// body (the heartbeat stampers) blocks on its own stack.
	{"helpers", "cafteams/internal/pgas", "sim.Proc.Sleep sim.Cond.Wait simWait* simTransport.*", "simTransport.* simWait* sim.Env.Spawn()", "a helper blocks"},
	{"helpers", "cafteams/internal/pgas", "route sendOverhead dispatch deliverAt deliverFlagOp dropped wake getDelivery", "simbackend.go", "a put-path helper is not a plain function"},
	// A message is charged in route (AtomicShm is a read-modify-write, not a
	// message) and lost at one gate, dropped (Launch seeds the drop stream),
	// so every leg meets NIC and link faults.
	{"helpers", "cafteams/internal/pgas", "sim.Resource.Occupy", "route=4 simTransport.atomicRoundTrip=1", "a message charged outside route"},
	{"helpers", "cafteams/internal/pgas", "simTransport.drops", "simTransport.Launch dropped=1", "the drop stream drawn outside its gate"},
	// Only a collective's box, whose reads are checked (Box.Landed), is written
	// at issue; the guard's put records are its helpers' alone.
	{"landing", "cafteams/internal/coll", "pgas.NewGuardedCoarray", "newBox=1", "a write-at-issue coarray outside coll's boxes"},
	{"landing", "cafteams/caf cafteams/internal/core cafteams/internal/team cafteams/internal/hpl cafteams/internal/bench cafteams/cmd/caftopo cafteams/cmd/hplbench cafteams/examples/hpl", "pgas.NewGuardedCoarray", "", "a write-at-issue coarray outside coll's boxes"},
	{"landing", "cafteams/internal/pgas", "inflight.flights", "inflight.*", "a put record touched outside the guard's helpers"},
}

func seamsOver(table []seam) *Analyzer {
	return &Analyzer{Name: "seams", Doc: "hold each architecture seam's objects to the places its row allows", Run: func(pass *Pass) error {
		for _, row := range table {
			if slices.Contains(strings.Fields(row.pkg), pass.Path) {
				checkSeam(pass, row)
			}
		}
		return nil
	}}
}

type place struct {
	name      string
	want, got int          // want < 0: any number of uses
	call      types.Object // a call place's function
}

func checkSeam(pass *Pass, row seam) {
	broken := func(format string, args ...any) {
		pass.Reportf(pass.Files[0].Package, "seams", "seam row %q: "+format, append([]any{row.why}, args...)...)
	}
	named := map[any]string{} // objects and whole packages → their spec
	for _, spec := range strings.Fields(row.objects) {
		objs, whole := resolve(pass.Types, spec)
		if whole != nil {
			named[whole] = spec
		} else if len(objs) == 0 {
			broken("no object %s", spec)
		}
		for _, o := range objs {
			named[o] = spec
		}
	}
	var places []*place
	for _, s := range strings.Fields(row.places) {
		p := &place{name: s, want: -1}
		if name, n, ok := strings.Cut(s, "="); ok {
			p.name = name
			p.want, _ = strconv.Atoi(n)
		}
		if f, ok := strings.CutPrefix(p.name, "!"); ok && !slices.ContainsFunc(pass.Files, func(af *ast.File) bool { return fileOf(pass, af) == f }) {
			broken("no file %s", f)
		}
		if fn, ok := strings.CutSuffix(p.name, "()"); ok {
			if objs, _ := resolve(pass.Types, fn); len(objs) == 1 {
				p.call = objs[0]
			}
		}
		places = append(places, p)
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		file := fileOf(pass, f)
		for _, d := range f.Decls {
			decl := declName(d)
			var calls []*ast.CallExpr // Inspect visits a call before its arguments
			ast.Inspect(d, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					calls = append(calls, c)
				}
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.Info.Uses[id]
				if f, ok := obj.(*types.Func); ok { // a generic's instantiated method or field: the row names its origin
					obj = f.Origin()
				} else if v, ok := obj.(*types.Var); ok {
					obj = v.Origin()
				}
				spec, hit := named[obj]
				if obj != nil && !hit {
					spec, hit = named[obj.Pkg()]
				}
				if hit && !admit(places, pass.Info, file, decl, id.Pos(), calls) {
					pass.Reportf(id.Pos(), "seams", "%s named in %s (%s): %s (allowed: %s)", spec, decl, file, row.why, cmp.Or(row.places, "nowhere"))
				}
				return true
			})
		}
	}
	for _, p := range places {
		if p.want >= 0 && p.got != p.want {
			broken("%d uses in %s, want %d", p.got, p.name, p.want)
		}
	}
}

// admit counts a use at pos, in declaration decl of file, in every place
// that holds it, and reports whether one does.
func admit(places []*place, info *types.Info, file, decl string, pos token.Pos, calls []*ast.CallExpr) bool {
	ok := false
	for _, p := range places {
		in := p.name == file || p.name == decl || strings.HasSuffix(p.name, "*") && strings.HasPrefix(decl, p.name[:len(p.name)-1])
		if p.call != nil {
			in = slices.ContainsFunc(calls, func(c *ast.CallExpr) bool {
				s, ok := c.Fun.(*ast.SelectorExpr)
				return ok && info.Uses[s.Sel] == p.call && c.Lparen < pos && pos < c.Rparen
			})
		} else if p.name[0] == '!' {
			in = file != p.name[1:]
		}
		if in {
			p.got++
			ok = true
		}
	}
	return ok
}

// declName names a top-level declaration: "f", "T.m" for a method, or the
// first type of a type declaration.
func declName(d ast.Decl) string {
	if f, ok := d.(*ast.FuncDecl); ok && f.Recv != nil {
		recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(f.Recv.List[0].Type), "*"), "[")
		return recv + "." + f.Name.Name
	} else if ok {
		return f.Name.Name
	}
	if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.TYPE && len(g.Specs) > 0 {
		return g.Specs[0].(*ast.TypeSpec).Name.Name
	}
	return ""
}

// resolve returns the objects spec names, or the package it names whole.
func resolve(pkg *types.Package, spec string) ([]types.Object, *types.Package) {
	scope := pkg.Scope()
	for _, imp := range pkg.Imports() {
		if spec == imp.Name() {
			return nil, imp
		} else if rest, ok := strings.CutPrefix(spec, imp.Name()+"."); ok {
			scope, spec = imp.Scope(), rest
		}
	}
	name, member, _ := strings.Cut(spec, ".")
	var objs []types.Object
	for _, n := range scope.Names() {
		if n == name || strings.HasSuffix(name, "*") && strings.HasPrefix(n, name[:len(name)-1]) {
			objs = append(objs, scope.Lookup(n))
		}
	}
	if member == "" || len(objs) != 1 {
		return objs, nil
	}
	if t := objs[0].Type(); member == "*" {
		objs = nil
		for m := range types.NewMethodSet(types.NewPointer(t)).Methods() {
			objs = append(objs, m.Obj())
		}
	} else if m, _, _ := types.LookupFieldOrMethod(t, true, objs[0].Pkg(), member); m != nil {
		objs[0] = m
	} else {
		objs = nil
	}
	return objs, nil
}

func fileOf(pass *Pass, f *ast.File) string { return filepath.Base(pass.Fset.File(f.Pos()).Name()) }
