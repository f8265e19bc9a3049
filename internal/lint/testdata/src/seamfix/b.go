package seamfix

func other() {
	Helper() // want `Helper named in other \(b.go\): file \(allowed: a.go\)`
	Decl()   // want `Decl named in other`
	Locked() // want `Locked named in other`
	Waiter() // want `Waiter named in other`
	Banned() // want `Banned named in other \(b.go\): not in file \(allowed: !b.go\)`
	Helper() /* want `Helper named in other` `"seams", which is not a category` */ //caflint:allow seams
	_ = 0    /* want `"wallclok", which is not a category` */                      //caflint:allow wallclok
}
