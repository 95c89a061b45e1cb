package client

import (
	"context"

	"mnemo/internal/server"
)

type llcShareKey struct{}

// ShareLLC returns a context under which every run of one measurement
// call — its legs, repetitions, validation points and shards — is
// priced from one shared LLC walk per trace (server.LLCShare), and the
// release that stops the walks and waits for them. The caller defers
// release until its last run has returned. Under a context that already
// shares, ShareLLC returns it unchanged with a no-op release, so the
// outermost measuring call owns the share.
func ShareLLC(ctx context.Context) (context.Context, func()) {
	if ctx == nil {
		ctx = context.Background()
	}
	if llcShareFrom(ctx) != nil {
		return ctx, func() {}
	}
	sh := server.NewLLCShare(ctx)
	return context.WithValue(ctx, llcShareKey{}, sh), sh.Close
}

// llcShareFrom returns the context's LLC share, or nil.
func llcShareFrom(ctx context.Context) *server.LLCShare {
	sh, _ := ctx.Value(llcShareKey{}).(*server.LLCShare)
	return sh
}
