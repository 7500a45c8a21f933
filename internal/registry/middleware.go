package registry

import (
	"net/http"

	"pnptuner/internal/api"
)

// withLimit bounds a route's concurrent requests: past n in flight the
// request is shed with CodeOverloaded before any work (no body decode).
// The bound is per wrapped handler, so predict and tune each get their
// own — one route melting down cannot starve the other, and overload
// never wedges background work (refresh retrains and canary scoring run
// off-request and never pass through here).
func withLimit(n int, next http.HandlerFunc) http.HandlerFunc {
	if n <= 0 {
		return next
	}
	slots := make(chan struct{}, n)
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case slots <- struct{}{}:
			defer func() { <-slots }()
			next.ServeHTTP(w, r)
		default:
			api.WriteError(w, r, api.Errorf(api.CodeOverloaded,
				"route at its concurrency limit (%d in flight); retry later", n))
		}
	}
}
