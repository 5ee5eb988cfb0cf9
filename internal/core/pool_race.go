//go:build race

package core

// maxIdle caps the idle coroutine pool. Under the race detector an
// exited coroutine keeps its detector state, so finished coroutines are
// kept for reuse.
const maxIdle = 4096
