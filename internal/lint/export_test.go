package lint

// SeamsFixture is seams over testdata/src/seamfix's table: a row per place kind.
var SeamsFixture = seamsOver([]seam{
	{"fixture", "seamfix", "Helper", "a.go", "file"},
	{"fixture", "seamfix", "Decl", "owner", "declaration"},
	{"fixture", "seamfix", "Locked", "Env.*", "method set"},
	{"fixture", "seamfix", "Waiter", "wait*", "prefix"},
	{"fixture", "seamfix", "Block", "Env.Spawn()", "spawn body"},
	{"fixture", "seamfix", "Counted", "once=1 twice=2", "exact count"},
	{"fixture", "seamfix", "Banned", "!b.go", "not in file"},
	{"fixture", "seamfix", "Missing", "a.go", "missing object"},
})
