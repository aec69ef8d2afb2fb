// Package cli is the one command-line contract of the module's binaries: a
// binary is a table of modes, each a subcommand with its own flag set, so a
// flag the mode does not read fails to parse instead of being ignored. A
// missing or unknown mode, a flag the mode does not define, an argument to
// a mode without Args or a refusal from Usagef exits 2 with the usage; -h
// prints the mode's usage and exits 0; any other error exits 1.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
)

// A Mode is one subcommand of a binary.
type Mode struct {
	Name    string
	Args    string // the positional arguments, as the usage line shows them; "" takes none
	Summary string
	// Flags declares the mode's flags on fs and returns what runs once they
	// are parsed, handed the positional arguments.
	Flags func(fs *flag.FlagSet) (run func(args []string) error)
}

type usageError string

func (e usageError) Error() string { return string(e) }

// Usagef returns a refusal of the command line.
func Usagef(format string, args ...any) error { return usageError(fmt.Sprintf(format, args...)) }

// Main runs the mode that the first argument names, and exits.
func Main(bin string, modes ...Mode) {
	for _, m := range modes {
		if len(os.Args) > 1 && os.Args[1] == m.Name {
			os.Exit(m.run(bin, os.Args[2:]))
		}
	}
	code := 2
	switch {
	case len(os.Args) < 2:
		fmt.Fprintf(os.Stderr, "%s: a mode is required\n", bin)
	case os.Args[1] == "-h" || os.Args[1] == "-help" || os.Args[1] == "--help":
		code = 0
	default:
		fmt.Fprintf(os.Stderr, "%s: unknown mode %q\n", bin, os.Args[1])
	}
	fmt.Fprintf(os.Stderr, "usage: %s <mode> [flags] [args]\n\nmodes:\n", bin)
	for _, m := range modes {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", m.Name, m.Summary)
	}
	fmt.Fprintf(os.Stderr, "\n'%s <mode> -h' prints a mode's flags.\n", bin)
	os.Exit(code)
}

func (m Mode) run(bin string, args []string) int {
	fs := flag.NewFlagSet(bin+" "+m.Name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s\n\n%s\n\n", strings.TrimSpace(bin+" "+m.Name+" [flags] "+m.Args), m.Summary)
		fs.PrintDefaults()
	}
	body := m.Flags(fs)
	// Flags may sit before, between and after the positional arguments:
	// each parse stops at one, which is set aside. A "--" ends the flags.
	var pos []string
	for fs.Parse(args); fs.NArg() > 0; fs.Parse(args) {
		if n := len(args) - fs.NArg(); n > 0 && args[n-1] == "--" {
			pos = append(pos, fs.Args()...)
			break
		}
		pos, args = append(pos, fs.Arg(0)), fs.Args()[1:]
	}
	err := Usagef("%s takes no arguments, got %q", m.Name, pos)
	if m.Args != "" || len(pos) == 0 {
		err = body(pos)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(os.Stderr, "%s: %s\n", bin, strings.TrimSpace(err.Error()))
	if errors.As(err, new(usageError)) {
		fs.Usage()
		return 2
	}
	return 1
}
