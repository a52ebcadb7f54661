package doda

// Serve-client re-exports: programs feeding a remote dodaserve process
// use the root package's retrying client and never import internal/.
// See internal/serveclient/doc.go for the idempotency and retry
// contracts.

import (
	"doda/internal/serve"
	"doda/internal/serveclient"
)

// Serve-client types.
type (
	// ServeClient talks to one dodaserve process with bounded,
	// deterministically-jittered retries; every operation is safe to
	// retry because ingest is seq-stamped and the server acks duplicates
	// without re-applying them.
	ServeClient = serveclient.Client
	// ServeClientOptions tunes a client (HTTP transport, retry policy,
	// jitter seed).
	ServeClientOptions = serveclient.Options
	// ServeInstanceConfig registers an instance (name, n, algorithm,
	// aggregate, provenance).
	ServeInstanceConfig = serve.InstanceConfig
)

// NewServeClient builds a client for the dodaserve process at baseURL.
func NewServeClient(baseURL string, opt ServeClientOptions) *ServeClient {
	return serveclient.New(baseURL, opt)
}
