// Fixture for seams: export_test.go has a row per place kind, and each object
// is named here where its row allows it and in b.go where it does not.
package seamfix // want `no object Missing` `1 uses in twice, want 2`

var Helper, Decl, Locked, Waiter, Block, Counted, Banned func()

type Env struct{}

func (Env) Spawn(body func()) {}
func (Env) lock()             { Locked() }
func owner()                  { Helper(); Decl(); Banned() }
func waitFor()                { Waiter() }
func once()                   { Counted() }
func twice()                  { Counted() }

func spawner(e Env) {
	e.Spawn(func() { Block() })
	Block() // want `Block named in spawner \(a.go\): spawn body \(allowed: Env.Spawn\(\)\)`
}
