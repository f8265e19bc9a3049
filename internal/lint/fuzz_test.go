package lint

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzParseDirective: any comment text parses without panicking; only the
// directive prefix followed by a blank yields categories (a bare prefix
// yields none, anything else nil); and no category is empty, holds
// whitespace or holds the "--" that starts the justification.
func FuzzParseDirective(f *testing.F) {
	for _, s := range []string{
		"//caflint:allow wallclock",
		"// caflint:allow wallclock maporder -- why",
		"//caflint:allow\tstat --deliberate",
		"//caflint:allowx wallclock",
		"//caflint:allow",
		"//caflint:allow -- justification only",
		"// plain comment",
		"caflint:allow x--y",
		"/*caflint:allow x*/",
		"//caflint:allow x",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cats := parseDirective(text)
		body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
		blank := strings.HasPrefix(body, directivePrefix+" ") || strings.HasPrefix(body, directivePrefix+"\t")
		if !blank && body != directivePrefix && cats != nil {
			t.Fatalf("parseDirective(%q) = %q, want nil: no %q and a blank", text, cats, directivePrefix)
		}
		if !blank && len(cats) > 0 {
			t.Fatalf("parseDirective(%q) = %q, want no categories", text, cats)
		}
		for _, c := range cats {
			if c == "" || strings.IndexFunc(c, unicode.IsSpace) >= 0 || strings.Contains(c, "--") {
				t.Fatalf("parseDirective(%q) = %q: category %q is empty, holds a blank or holds --", text, cats, c)
			}
		}
	})
}
