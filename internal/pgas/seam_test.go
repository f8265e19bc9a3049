package pgas

import (
	"testing"

	"cafteams/internal/lint"
	"cafteams/internal/lint/linttest"
)

// TestBackendSeamIsClosed: a backend's state is its transport, and no backend
// branch lives outside the backend's file. The types simbackend.go declares
// (simTransport, simImage, delivery) are named only there, and those of
// nativebackend.go (nativeTransport, nativeCell) only there; only
// nativebackend.go uses time (the wall clock is the native backend's); World's
// one backend field is its Transport, and no Transport method takes a *World;
// Transport.Immediate is asked once each in the typed Put and PutThenNotify.
// The rows are caflint's backend seam (internal/lint/seams.go).
func TestBackendSeamIsClosed(t *testing.T) {
	t.Parallel()
	linttest.Run(t, "../..", lint.SeamsOf("backend"), "cafteams/internal/pgas")
}

// TestSimHelpersDoNotBlock: helpers compute, transport methods block. A
// Proc.Sleep, Cond.Wait or simWait* call sits only in a *simTransport method,
// in simWait* itself or in a spawned process's body, so route and the
// deliver* helpers that every put passes through stay frames that return (see
// bench.TestStackBudget). A message is charged in route alone (and in the
// same-node arm of atomicRoundTrip) and the drop stream is named only where
// Launch seeds it and once in dropped, so no leg misses a NIC or link fault.
// The rows are caflint's helpers seam.
func TestSimHelpersDoNotBlock(t *testing.T) {
	t.Parallel()
	linttest.Run(t, "../..", lint.SeamsOf("helpers"), "cafteams/internal/pgas")
}

// TestWriteAtIssueIsTheBoxes: the sim writes a put's payload at issue only into
// a collective's box — NewGuardedCoarray's one caller is coll's newBox, and no
// other package that builds on pgas calls it — and the guard's put records are
// touched only in the guard's own methods. The rows are caflint's landing seam.
func TestWriteAtIssueIsTheBoxes(t *testing.T) {
	t.Parallel()
	linttest.Run(t, "../..", lint.SeamsOf("landing"), "cafteams/internal/pgas", "cafteams/internal/coll", "cafteams/caf",
		"cafteams/internal/core", "cafteams/internal/team", "cafteams/internal/hpl", "cafteams/internal/bench",
		"cafteams/cmd/caftopo", "cafteams/cmd/hplbench", "cafteams/examples/hpl")
}
