// Golden fixture for the fsyncerr analyzer, loaded as an internal/
// package.
package fixture

import "os"

func unchecked(path string) {
	f, _ := os.Create(path)
	f.Write([]byte("x")) // want `Write error discarded`
	f.Sync()             // want `Sync error discarded`
	f.Close()            // want `Close error discarded`
}

func deferred(path string) {
	f, _ := os.Create(path)
	defer f.Close()    // want `Close error discarded`
	f.WriteString("x") // want `WriteString error discarded`
}

func checked(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("x")); err != nil {
		// Best-effort cleanup before propagating: allowed.
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	// An explicit discard is a visible decision: allowed.
	_ = f.Close()
	return nil
}

func readOnly(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	// Closing a read-only handle cannot lose acknowledged writes.
	f.Close()
	return nil
}
