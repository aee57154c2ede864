package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeTB records what Check reports instead of failing the real test.
type fakeTB struct {
	testing.TB
	name   string
	failed bool
	msg    string
}

func (f *fakeTB) Helper()      {}
func (f *fakeTB) Name() string { return f.name }

func (f *fakeTB) Errorf(format string, args ...any) {
	f.failed = true
	f.msg += fmt.Sprintf(format, args...)
}

func (f *fakeTB) Fatalf(format string, args ...any) { f.Errorf(format, args...) }
func (f *fakeTB) Fatal(args ...any)                 { f.Errorf("%s", fmt.Sprint(args...)) }

func TestCheckOneByteMismatchNamesFirstDifferingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := os.WriteFile(path, []byte("alpha\nbeta\ngamma\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fake := &fakeTB{name: "TestPinned/case"}
	Check(fake, path, []byte("alpha\nbetA\ngamma\n"))
	if !fake.failed {
		t.Fatal("a one-byte mismatch passed")
	}
	for _, want := range []string{"line 2", `"betA\n"`, `"beta\n"`, "-run '^TestPinned$' -update"} {
		if !strings.Contains(fake.msg, want) {
			t.Errorf("failure message lacks %q:\n%s", want, fake.msg)
		}
	}

	fake = &fakeTB{name: "TestPinned"}
	Check(fake, path, []byte("alpha\nbeta\ngamma\n"))
	if fake.failed {
		t.Errorf("identical bytes failed: %s", fake.msg)
	}
}

func TestCheckMissingFileGivesRegenerationHint(t *testing.T) {
	fake := &fakeTB{name: "TestPinned"}
	Check(fake, filepath.Join(t.TempDir(), "absent.txt"), []byte("x\n"))
	if !fake.failed {
		t.Fatal("a missing golden file passed")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if want := "regenerate with: go test " + wd + " -run '^TestPinned$' -update"; !strings.Contains(fake.msg, want) {
		t.Errorf("failure message lacks %q:\n%s", want, fake.msg)
	}
}

func TestCheckUpdateWritesGot(t *testing.T) {
	defer func(old bool) { *update = old }(*update)
	*update = true
	path := filepath.Join(t.TempDir(), "new", "dir", "out.txt")
	got := []byte("no trailing newline\x00\xff")
	fake := &fakeTB{name: "TestPinned"}
	Check(fake, path, got)
	if fake.failed {
		t.Fatalf("update failed: %s", fake.msg)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != string(got) {
		t.Errorf("update wrote %q, want %q", written, got)
	}
}
