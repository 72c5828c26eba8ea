package wire

import (
	"log/slog"

	"steghide/internal/obs"
)

// ServeOptions carries the observability attachments a server can be
// built with. Both are optional: a nil Logger is silent, a nil
// Metrics registry uninstrumented — the zero value is exactly the
// pre-observability server.
//
// Privacy contract (DESIGN.md "Observability plane"): lifecycle logs
// and metric labels carry only wire-visible facts — remote addresses,
// usernames and volume names from login frames, protocol versions,
// frame counts. Passphrases, hidden pathnames, locator secrets and
// any real-vs-dummy classification never reach either sink; the
// leakage lint test enforces the identifier flows.
type ServeOptions struct {
	Logger  *slog.Logger
	Metrics *obs.Registry
}

// serverMetrics is the per-server instrumentation bundle, nil when no
// registry is attached.
type serverMetrics struct {
	reg         *obs.Registry
	connections *obs.Counter // accepted connections
	requests    *obs.Counter // request frames dispatched to handlers
	faults      *obs.Counter // connections dropped by a transport fault
	goaways     *obs.Counter // goaway frames sent to draining connections
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	return &serverMetrics{
		reg: reg,
		connections: reg.Counter("steghide_wire_connections_total",
			"connections accepted by the wire server"),
		requests: reg.Counter("steghide_wire_requests_total",
			"request frames dispatched to protocol handlers"),
		faults: reg.Counter("steghide_wire_transport_faults_total",
			"connections dropped by a transport fault (not clean closes)"),
		goaways: reg.Counter("steghide_wire_goaways_total",
			"goaway frames sent to peers during drain"),
	}
}

// login bumps the per-volume login counter (get-or-create: volumes
// registered after boot still get a series on first login). Volume
// names are operator-assigned serving labels from the login frame —
// wire-visible, not hidden material.
func (m *serverMetrics) login(volume string) {
	if m == nil {
		return
	}
	m.reg.Counter("steghide_wire_logins_total",
		"successful logins", "volume", volume).Inc()
}

// Client-side counters are package-level: Redialers are created per
// dial site, often transiently, so they share one set of series
// rather than each registering its own. They count whether or not a
// registry is attached (same atomic either way) and surface once
// RegisterClientMetrics exports them.
var (
	clientRedials      obs.Counter // fresh connections dialed by Redialers
	clientRetries      obs.Counter // call re-attempts after a transport fault
	clientMaybeApplied obs.Counter // calls surfaced as ErrMaybeApplied
)

// RegisterClientMetrics exports the self-healing client's counters
// through reg. Call once per registry; process-wide totals (a client
// process, unlike a server, rarely wants per-target split — and
// target addresses stay out of labels by design).
func RegisterClientMetrics(reg *obs.Registry) {
	reg.RegisterCounter("steghide_wire_redials_total",
		"connections dialed by self-healing clients", &clientRedials)
	reg.RegisterCounter("steghide_wire_retries_total",
		"client call re-attempts after transport faults", &clientRetries)
	reg.RegisterCounter("steghide_wire_maybe_applied_total",
		"client calls abandoned as possibly applied (ErrMaybeApplied)", &clientMaybeApplied)
}
