package hypersolve_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestEveryFieldIsSet: every exported field of an exported struct type that
// a non-test file under internal/ declares is written by some non-test file
// of the module or of benchmark/*.go. A write is a keyed or keyless
// composite literal of the struct, an assignment to the field, x.F++ or
// x.F--, or &x.F (which flag.StringVar and json.Unmarshal write through).
// A test that sets a field nothing else sets keeps an option no caller
// uses; delete the field, or make it a constant.
//
// A function's zero-guarded default on its own parameter, as in
// `if cfg.F <= 0 { cfg.F = d }`, is not a write: it fills in what no caller
// set. NewNode's default for cfg.Service.Telemetry is a write, because it
// sets the registry that the node hands to service.New. Two kinds of field
// are exempt: those with a json tag, which a decoder writes, and those of
// the types the root facade aliases, which a library user sets.
func TestEveryFieldIsSet(t *testing.T) {
	l := loadedModule(t)
	// allow lists fields kept although nothing outside tests writes them, one
	// reason each, keyed as the failure message prints them.
	allow := map[string]string{}

	facade := map[*types.TypeName]bool{}
	root := l.pkgs["hypersolve"].types.Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				facade[named.Obj()] = true
			}
		}
	}
	written := l.fieldWrites()

	var unset []string
	for _, ip := range l.paths() {
		if !strings.HasPrefix(ip, "hypersolve/internal/") {
			continue
		}
		scope := l.pkgs[ip].types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || facade[tn] {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || written[f] {
					continue
				}
				if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && tag != "-" {
					continue
				}
				field := l.declName(tn) + "." + f.Name()
				if _, ok := allow[field]; ok {
					delete(allow, field)
					continue
				}
				unset = append(unset, fmt.Sprintf("%s (%s)", field, l.fset.Position(f.Pos())))
			}
		}
	}
	for _, s := range unset {
		t.Errorf("%s is exported but no non-test file sets it: delete it, or make it a constant", s)
	}
	for field := range allow {
		t.Errorf("allowlisted %s is set now, or is gone: drop it from the list", field)
	}
}

// paths returns the import paths of the module's packages, sorted.
func (l *moduleLoader) paths() []string {
	ips := make([]string, 0, len(l.pkgs))
	for ip := range l.pkgs {
		ips = append(ips, ip)
	}
	sort.Strings(ips)
	return ips
}

// fieldWrites returns every struct field that a non-test file writes, as
// TestEveryFieldIsSet defines a write.
func (l *moduleLoader) fieldWrites() map[*types.Var]bool {
	written := map[*types.Var]bool{}
	for ip, p := range l.pkgs {
		info := p.info
		mark := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					written[s.Obj().(*types.Var).Origin()] = true
				}
			}
		}
		for _, f := range l.dirs[ip].files {
			defaults := zeroDefaults(f, info)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := structOf(info.TypeOf(n))
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							for k := 0; k < st.NumFields(); k++ {
								if st.Field(k).Name() == kv.Key.(*ast.Ident).Name {
									written[st.Field(k).Origin()] = true
								}
							}
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if !defaults[lhs] {
							mark(lhs)
						}
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				}
				return true
			})
		}
	}
	return written
}

// structOf returns the struct type a composite literal of type t builds: t
// itself, or what t points to when the literal's & is elided in a slice or
// map literal.
func structOf(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// zeroDefaults returns the left-hand sides of a file's zero-guarded
// defaults: `p.F = d` as a statement of an if whose condition compares p.F
// with a constant or nil, where p is a parameter or receiver of a function.
// A default on a nested config (`p.Sub.F = d`) fills in what the function
// hands to another constructor, so it is a write.
func zeroDefaults(f *ast.File, info *types.Info) map[ast.Expr]bool {
	params := map[types.Object]bool{}
	addParams := func(fields ...*ast.FieldList) {
		for _, fl := range fields {
			if fl == nil {
				continue
			}
			for _, field := range fl.List {
				for _, name := range field.Names {
					params[info.Defs[name]] = true
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			addParams(n.Recv, n.Type.Params)
		case *ast.FuncLit:
			addParams(n.Type.Params)
		}
		return true
	})
	isConst := func(e ast.Expr) bool {
		tv := info.Types[e]
		return tv.Value != nil || tv.IsNil()
	}
	defaults := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok {
			return true
		}
		guarded := cond.X
		if !isConst(cond.Y) {
			if guarded = cond.Y; !isConst(cond.X) {
				return true
			}
		}
		sel, ok := guarded.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || !params[info.Uses[id]] {
			return true
		}
		for _, stmt := range ifs.Body.List {
			if as, ok := stmt.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 &&
				types.ExprString(as.Lhs[0]) == types.ExprString(guarded) {
				defaults[as.Lhs[0]] = true
			}
		}
		return true
	})
	return defaults
}

// TestSettableSurface pins every value an operator or a library caller can
// set: each exported field of an exported *Config, *Options or Client struct
// under internal/, each flag a command registers with its default, and each
// environment variable the module reads. A new knob is a deliberate diff of
// this list, reviewed like a new facade export (TestFacadeExports).
func TestSettableSurface(t *testing.T) {
	l := loadedModule(t)
	// A value is added here only together with a caller that sets it.
	want := strings.Split(strings.TrimSpace(`
		env hyperctl key in envOr
		env hypersolved GOGC
		field internal/cluster.Config.Backends
		field internal/cluster.Config.FailAfter
		field internal/cluster.Config.Logger
		field internal/cluster.Config.ProbeEvery
		field internal/cluster.Config.PromoteAfter
		field internal/cluster.Config.Standbys
		field internal/cluster.Config.SubmitTimeout
		field internal/core.Config.Link
		field internal/core.Config.Mapper
		field internal/core.Config.MaxSteps
		field internal/core.Config.Observer
		field internal/core.Config.ProcsPerNode
		field internal/core.Config.RecordSeries
		field internal/core.Config.Seed
		field internal/core.Config.Task
		field internal/core.Config.Topology
		field internal/experiments.Figure4Config.Seed
		field internal/experiments.Figure4Config.Series
		field internal/experiments.Figure4Config.Workload
		field internal/experiments.Figure5Config.Seed
		field internal/experiments.Figure5Config.Side
		field internal/experiments.Figure5Config.Workload
		field internal/mapping.Config.Factory
		field internal/mapping.Config.Mapper
		field internal/mapping.Config.Seed
		field internal/mapping.Config.Sim
		field internal/sat.Options.Heuristic
		field internal/sat.Options.MaxCalls
		field internal/sat.Options.Simplify
		field internal/sched.Config.Factory
		field internal/sched.Config.Sim
		field internal/service.Client.Base
		field internal/service.Config.QueueDepth
		field internal/service.Config.Store
		field internal/service.Config.Telemetry
		field internal/service.Config.Workers
		field internal/service.NodeConfig.Dir
		field internal/service.NodeConfig.Follow
		field internal/service.NodeConfig.Logger
		field internal/service.NodeConfig.PullEvery
		field internal/service.NodeConfig.Service
		field internal/service.NodeConfig.Store
		field internal/simulator.Config.DeliverPerStep
		field internal/simulator.Config.Factory
		field internal/simulator.Config.LinkLatency
		field internal/simulator.Config.LossRate
		field internal/simulator.Config.MaxSteps
		field internal/simulator.Config.Observer
		field internal/simulator.Config.QueueCap
		field internal/simulator.Config.QueueModel
		field internal/simulator.Config.RecordSeries
		field internal/simulator.Config.Reliable
		field internal/simulator.Config.RetransmitAfter
		field internal/simulator.Config.Seed
		field internal/simulator.Config.Topology
		field internal/store.FileConfig.Dir
		field internal/store.FileConfig.Fsync
		field internal/store.FileConfig.History
		field internal/store.FileConfig.Replica
		field internal/store.FileConfig.SnapshotEvery
		field internal/store.FileConfig.Telemetry
		flag figures -csv false
		flag figures -fig 4
		flag figures -quick false
		flag figures -seed 1
		flag figures -side 14
		flag hyperctl (cluster add-backend) -primary ""
		flag hyperctl (cluster add-backend) -standby ""
		flag hyperctl (list) -state ""
		flag hyperctl (submit) -cnf ""
		flag hyperctl (submit) -heatmap false
		flag hyperctl (submit) -heuristic ""
		flag hyperctl (submit) -kind "sat"
		flag hyperctl (submit) -mapper ""
		flag hyperctl (submit) -max-steps 0
		flag hyperctl (submit) -n 0
		flag hyperctl (submit) -portfolio ""
		flag hyperctl (submit) -procs 0
		flag hyperctl (submit) -seed 1
		flag hyperctl (submit) -series false
		flag hyperctl (submit) -spec ""
		flag hyperctl (submit) -timeout 0s
		flag hyperctl (submit) -topo ""
		flag hyperctl (submit) -wait false
		flag hyperctl (trace) -json false
		flag hyperctl (wait) -poll 100ms
		flag hyperctl (wait) -progress false
		flag hyperctl (wait) -timeout 0s
		flag hyperctl -addr envOr("HYPERSOLVED_ADDR", "http://localhost:8080")
		flag hyperctl -version false
		flag hypersim -cnf ""
		flag hypersim -heatmap false
		flag hypersim -heuristic "first"
		flag hypersim -link-queues false
		flag hypersim -mapper "rr"
		flag hypersim -max-steps 0
		flag hypersim -n 20
		flag hypersim -procs 1
		flag hypersim -runs 1
		flag hypersim -seed 1
		flag hypersim -series false
		flag hypersim -task "sat"
		flag hypersim -topo "torus:14x14"
		flag hypersolved -addr ":8080"
		flag hypersolved -data-dir ""
		flag hypersolved -fail-after 3
		flag hypersolved -follow ""
		flag hypersolved -fsync false
		flag hypersolved -log-format "text"
		flag hypersolved -log-level "info"
		flag hypersolved -pprof-addr ""
		flag hypersolved -probe-every 2s
		flag hypersolved -promote-after 10s
		flag hypersolved -pull-every 250ms
		flag hypersolved -queue 64
		flag hypersolved -route ""
		flag hypersolved -snapshot-every 1024
		flag hypersolved -standbys ""
		flag hypersolved -submit-timeout 15s
		flag hypersolved -version false
		flag hypersolved -workers 0
		flag satgen -clauses 91
		flag satgen -count 1
		flag satgen -out ""
		flag satgen -sat false
		flag satgen -seed 1
		flag satgen -vars 20
		flag satsolve -assignment false
		flag satsolve -heuristic "first"
		flag satsolve -mapper "lbn"
		flag satsolve -mesh ""
		flag satsolve -stats false
	`), "\n")
	for i := range want {
		want[i] = strings.TrimSpace(want[i])
	}
	got := l.settable()
	if !slices.Equal(got, want) {
		var diff []string
		for _, s := range got {
			if !slices.Contains(want, s) {
				diff = append(diff, "+ "+s)
			}
		}
		for _, s := range want {
			if !slices.Contains(got, s) {
				diff = append(diff, "- "+s)
			}
		}
		t.Errorf("the settable surface changed (+ new, - gone); %d values now:\n%s\nfull list:\n%s",
			len(got), strings.Join(diff, "\n"), strings.Join(got, "\n"))
	}
}

// settable lists the settable surface TestSettableSurface pins, one value a
// line, sorted.
func (l *moduleLoader) settable() []string {
	var out []string
	for _, ip := range l.paths() {
		p := l.pkgs[ip]
		if strings.HasPrefix(ip, "hypersolve/internal/") {
			scope := p.types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || tn.IsAlias() ||
					!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || name == "Client") {
					continue
				}
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						if st.Field(i).Exported() {
							out = append(out, "field "+l.declName(tn)+"."+st.Field(i).Name())
						}
					}
				}
			}
		}
		if ip == "hypersolve/benchmark" {
			continue
		}
		for _, f := range l.dirs[ip].files {
			out = append(out, commandInputs(path.Base(ip), f, p.info)...)
		}
	}
	sort.Strings(out)
	return out
}

// flagDefiners are the functions and FlagSet methods of package flag that
// define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true,
	"Int64Var": true, "IntVar": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// commandInputs lists the flags a file registers, as "flag <cmd> [<flag
// set>] -name default", and the environment variables it reads, as
// "env <cmd> NAME" (or the key expression and its function when the key is
// not a constant).
func commandInputs(cmd string, f *ast.File, info *types.Info) []string {
	// flagSets names the FlagSet variables from their flag.NewFlagSet call.
	flagSets := map[types.Object]string{}
	callee := func(call *ast.CallExpr) (pkg, name string) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", ""
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return "", ""
		}
		return fn.Pkg().Path(), fn.Name()
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if pkg, name := callee(call); pkg == "flag" && name == "NewFlagSet" {
					if id, ok := as.Lhs[i].(*ast.Ident); ok {
						flagSets[info.ObjectOf(id)] = constant.StringVal(info.Types[call.Args[0]].Value)
					}
				}
			}
		}
		return true
	})
	render := func(e ast.Expr) string {
		tv := info.Types[e]
		switch {
		case tv.Value == nil:
			return types.ExprString(e)
		case types.TypeString(tv.Type, nil) == "time.Duration":
			v, _ := constant.Int64Val(tv.Value)
			return time.Duration(v).String()
		}
		return tv.Value.ExactString()
	}
	var out []string
	var fn string // the enclosing function
	ast.Inspect(f, func(n ast.Node) bool {
		if d, ok := n.(*ast.FuncDecl); ok {
			fn = d.Name.Name
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name := callee(call)
		switch {
		case pkg == "os" && (name == "Getenv" || name == "LookupEnv"):
			if v := info.Types[call.Args[0]].Value; v != nil {
				out = append(out, "env "+cmd+" "+constant.StringVal(v))
			} else {
				out = append(out, "env "+cmd+" "+types.ExprString(call.Args[0])+" in "+fn)
			}
		case pkg == "flag" && flagDefiners[name]:
			set := cmd
			if recv, ok := call.Fun.(*ast.SelectorExpr).X.(*ast.Ident); ok && flagSets[info.ObjectOf(recv)] != "" {
				set = flagSets[info.ObjectOf(recv)]
			}
			args := call.Args
			if strings.HasSuffix(name, "Var") {
				args = args[1:] // the destination
			}
			flagName := info.Types[args[0]].Value
			if flagName == nil || flagName.Kind() != constant.String {
				break
			}
			line := "flag " + cmd + " "
			if set != cmd {
				line += "(" + set + ") "
			}
			line += "-" + constant.StringVal(flagName)
			if name != "Var" && name != "Func" && name != "BoolFunc" && len(args) >= 3 {
				line += " " + render(args[1])
			}
			out = append(out, line)
		}
		return true
	})
	return out
}
