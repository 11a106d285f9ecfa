package stats

import "testing"

func TestInternSiteIdempotent(t *testing.T) {
	a := InternSite("par-buffer")
	b := InternSite("par-buffer")
	if a != b || a != SitePARBuffer {
		t.Fatalf("interning not idempotent: %v %v", a, b)
	}
	if a.String() != "par-buffer" {
		t.Fatalf("String = %q", a.String())
	}
	if _, ok := LookupSite("par-buffer"); !ok {
		t.Fatal("LookupSite missed a registered site")
	}
	if _, ok := LookupSite("never-registered-site"); ok {
		t.Fatal("LookupSite invented a site")
	}
}

func TestCanonicalSiteOrder(t *testing.T) {
	// The report enumerates drop counters by site index; the canonical
	// sites must keep their registration order.
	want := []DropSite{SitePARBuffer, SiteNARBuffer, SitePARPolicy, SiteLifetime, SiteAir, SiteLinkQueue}
	names := []string{"par-buffer", "nar-buffer", "par-policy", "lifetime", "air", "link-queue"}
	for i, site := range want {
		if InternSite(names[i]) != site {
			t.Fatalf("site %q interned out of order", names[i])
		}
		if site.String() != names[i] {
			t.Fatalf("site %d renders %q, want %q", site, site.String(), names[i])
		}
	}
}

// FuzzInternSite checks the interner is collision-free and idempotent for
// arbitrary names: same name → same ID, different names → different IDs,
// and String round-trips.
func FuzzInternSite(f *testing.F) {
	f.Add("par-buffer")
	f.Add("")
	f.Add("a")
	f.Add("link-queue")
	f.Add("site-with-✓-unicode")
	f.Fuzz(func(t *testing.T, name string) {
		id := InternSite(name)
		if again := InternSite(name); again != id {
			t.Fatalf("InternSite(%q) not idempotent: %v then %v", name, id, again)
		}
		if got := id.String(); got != name {
			t.Fatalf("String round-trip: %q -> %v -> %q", name, id, got)
		}
		if other := InternSite(name + "\x00x"); other == id {
			t.Fatalf("collision: %q and %q share ID %v", name, name+"\x00x", id)
		}
	})
}
