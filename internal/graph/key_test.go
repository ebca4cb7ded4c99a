package graph

import "testing"

// TestAppendKeyInjective: values that differ — including ones
// Value.String renders alike — never share a key, and concatenated
// keys stay self-delimiting.
func TestAppendKeyInjective(t *testing.T) {
	vals := []Value{
		NodeValue(1), NodeValue(2), Int(1), Int(-1), Int(0), Float(1), Float(0.5),
		Bool(true), Bool(false), Str("1"), Str(""), Str("true"), URL("1"),
		File("1", FilePostScript), File("1", FileText), Str("&1"),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := string(AppendKey(nil, v))
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share key %q", prev, v, k)
		}
		seen[k] = v
		if again := string(AppendKey(nil, v)); again != k {
			t.Errorf("%s: key not deterministic", v)
		}
	}
	ab := AppendKey(AppendKey(nil, Str("ab")), Str("c"))
	a := AppendKey(AppendKey(nil, Str("a")), Str("bc"))
	if string(ab) == string(a) {
		t.Error(`"ab"+"c" and "a"+"bc" concatenate to the same key`)
	}
}
