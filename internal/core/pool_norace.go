//go:build !race

package core

// maxIdle caps the idle coroutine pool. Without the race detector an
// exited coroutine costs nothing, while an idle one holds its stack, so
// no coroutine is kept.
const maxIdle = 0
