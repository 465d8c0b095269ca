package metric

import "testing"

func TestRegistryAddRaw(t *testing.T) {
	r := NewRegistry()
	d, err := r.AddRaw("PAPI_TOT_CYC", "cycles", 1000)
	if err != nil {
		t.Fatalf("AddRaw: %v", err)
	}
	if d.ID != 0 || d.Kind != Raw || d.Period != 1000 {
		t.Fatalf("bad descriptor: %+v", d)
	}
	if r.ByName("PAPI_TOT_CYC") != d || r.ByID(0) != d {
		t.Fatal("lookup mismatch")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("c", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddRaw("c", "cycles", 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestRegistryRejectsZeroPeriod(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("c", "cycles", 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestRegistryRejectsEmptyName(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("", "cycles", 1); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestRegistryDerivedValidatesRefs(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("cyc", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddDerived("waste", "$0*4 - $1"); err == nil {
		t.Fatal("forward column reference accepted")
	}
	if _, err := r.AddDerived("double", "$0*2"); err != nil {
		t.Fatalf("valid derived rejected: %v", err)
	}
}

func TestRegistrySummaryNames(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("cyc", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	d, err := r.AddSummary(0, OpMean)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "cyc (mean)" || d.Kind != Summary || d.Source != 0 {
		t.Fatalf("bad summary descriptor: %+v", d)
	}
	if _, err := r.AddSummary(99, OpMax); err == nil {
		t.Fatal("summary of unknown column accepted")
	}
}
