package sweep

// SetUnsafeStaleExit switches the scheduler to the pre-fix termination
// protocol (see unsafeStaleExit) and returns a function restoring the
// previous setting. Only the interleaving self-test uses it.
func SetUnsafeStaleExit(on bool) (restore func()) {
	prev := unsafeStaleExit
	unsafeStaleExit = on
	return func() { unsafeStaleExit = prev }
}
