package stats

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// DropSite is an interned drop-location identifier. Recorders count drops
// in dense arrays indexed by DropSite instead of string-keyed maps, so the
// per-drop cost is one array increment. The open `where string` API keeps
// working: Recorder.Dropped interns its argument, and DropSite.String
// returns the original label, so rendered reports are unchanged.
//
// Sites are interned in a process-wide table (copy-on-write, lock-free
// reads) so the same label maps to the same DropSite in every recorder and
// trace log, including replicas fanned across runner workers.
type DropSite uint32

// Canonical drop sites, preregistered in the order reports enumerate them.
// The labels mirror the core package's DropAt*/DropOn* constants and the
// scenario package's DropOnAir; a cross-package test pins the pairing.
const (
	// SitePARBuffer is a drop inside the previous access router's buffer.
	SitePARBuffer DropSite = iota
	// SiteNARBuffer is a drop inside the new access router's buffer.
	SiteNARBuffer
	// SitePARPolicy is a best-effort packet refused by the PAR's
	// classification policy.
	SitePARPolicy
	// SiteLifetime is a buffered packet expired by the session lifetime.
	SiteLifetime
	// SiteAir is a packet lost on the wireless hop.
	SiteAir
	// SiteLinkQueue is a tail drop on a wired link's transmit queue.
	SiteLinkQueue
	// SiteAirUplink is an uplink packet discarded by a station's radio:
	// sent while detached, uplink queue overflow, or the NIC-reset queue
	// flush on link-down.
	SiteAirUplink

	numCanonicalSites
)

// siteTable is an immutable snapshot of the interner. Lookups load the
// current snapshot atomically; interning a new name installs a fresh copy
// under the mutex.
type siteTable struct {
	byName map[string]DropSite
	names  []string
}

var (
	siteMu    sync.Mutex
	siteTab   atomic.Pointer[siteTable]
	canonical = []string{
		SitePARBuffer: "par-buffer",
		SiteNARBuffer: "nar-buffer",
		SitePARPolicy: "par-policy",
		SiteLifetime:  "lifetime",
		SiteAir:       "air",
		SiteLinkQueue: "link-queue",
		SiteAirUplink: "air-uplink",
	}
)

func init() {
	t := &siteTable{byName: make(map[string]DropSite, len(canonical))}
	for id, name := range canonical {
		t.byName[name] = DropSite(id)
		t.names = append(t.names, name)
	}
	siteTab.Store(t)
}

// InternSite returns the DropSite for a label, interning it on first use.
// Interning an already-known label is lock-free and allocation-free.
func InternSite(name string) DropSite {
	if id, ok := siteTab.Load().byName[name]; ok {
		return id
	}
	siteMu.Lock()
	defer siteMu.Unlock()
	old := siteTab.Load()
	if id, ok := old.byName[name]; ok {
		return id
	}
	next := &siteTable{
		byName: make(map[string]DropSite, len(old.byName)+1),
		names:  make([]string, len(old.names), len(old.names)+1),
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	copy(next.names, old.names)
	id := DropSite(len(next.names))
	next.names = append(next.names, name)
	next.byName[name] = id
	siteTab.Store(next)
	return id
}

// LookupSite returns the DropSite for a label without interning it.
func LookupSite(name string) (DropSite, bool) {
	id, ok := siteTab.Load().byName[name]
	return id, ok
}

// String returns the label the site was interned under.
func (s DropSite) String() string {
	names := siteTab.Load().names
	if int(s) < len(names) {
		return names[s]
	}
	return "site(" + strconv.FormatUint(uint64(s), 10) + ")"
}
