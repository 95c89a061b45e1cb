package kvstore

import (
	"testing"
	"testing/quick"
)

func TestValueConstructors(t *testing.T) {
	if s := Sized(100); s.Size != 100 {
		t.Fatalf("Sized = %+v", s)
	}
}

func TestSizedPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Sized(-1)
}

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{Read: "read", Write: "write", Delete: "delete"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d → %q, want %q", int(k), k.String(), want)
		}
	}
	if OpKind(42).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestKeyIDDeterministicAndSpread(t *testing.T) {
	if KeyID("user42") != KeyID("user42") {
		t.Fatal("KeyID not deterministic")
	}
	if KeyID("a") == KeyID("b") {
		t.Fatal("trivial collision")
	}
}

func TestKeyIDPureFunctionProperty(t *testing.T) {
	f := func(s string) bool { return KeyID(s) == KeyID(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
