// Command sciql is an interactive shell for the SciQL engine — the
// stand-in for the demo GUI of the paper's Fig. 4/5. It reads SQL/SciQL
// statements (terminated by ';'), executes them and renders results;
// 2-D array results can additionally be displayed as coordinate grids,
// like the matrices of the paper's Fig. 1.
//
// Usage:
//
//	sciql [-d dir] [-e "statements"] [-grid] [file.sql ...]
//
// Kernels run morsel-parallel at the Go runtime's width: cap it with the
// GOMAXPROCS environment variable. With -d the database persists to the
// directory on exit. With -e (or SQL files as arguments) statements run
// non-interactively. Inside the shell:
//
//	\q            quit
//	\d            list tables and arrays
//	\grid on|off  toggle grid rendering of 2-D array results
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	sciql "repro"
)

func main() {
	dir := flag.String("d", "", "database directory (empty: in-memory)")
	exec := flag.String("e", "", "statements to execute and exit")
	grid := flag.Bool("grid", false, "render 2-D array results as grids")
	flag.Parse()

	var (
		db  *sciql.DB
		err error
	)
	if *dir != "" {
		db, err = sciql.Open(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sciql:", err)
			os.Exit(1)
		}
	} else {
		db = sciql.New()
	}
	defer db.Close()

	run := func(src string) bool {
		results, err := db.Exec(src)
		for _, r := range results {
			printResult(r, *grid)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		return true
	}

	if *exec != "" {
		if !run(*exec) {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sciql:", err)
				os.Exit(1)
			}
			if !run(string(data)) {
				os.Exit(1)
			}
		}
		return
	}

	fmt.Println("SciQL shell — array data processing inside an RDBMS")
	fmt.Println(`type statements ending in ';', \d to list objects, \q to quit`)
	repl(db, grid)
}

func repl(db *sciql.DB, grid *bool) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "sciql> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			switch {
			case trimmed == `\q`:
				return
			case trimmed == `\d`:
				cat := db.Catalog()
				for _, n := range cat.TableNames() {
					fmt.Println("table", n)
				}
				for _, n := range cat.ArrayNames() {
					a, _ := cat.Array(n)
					fmt.Println("array", n, a.Shape)
				}
			case trimmed == `\grid on`:
				*grid = true
			case trimmed == `\grid off`:
				*grid = false
			default:
				fmt.Println(`unknown command (try \q, \d, \grid on|off)`)
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			src := buf.String()
			buf.Reset()
			prompt = "sciql> "
			results, err := db.Exec(src)
			for _, r := range results {
				printResult(r, *grid)
			}
			if err != nil {
				fmt.Println("error:", err)
			}
		} else {
			prompt = "  ...> "
		}
	}
}

func printResult(r *sciql.Result, grid bool) {
	if r == nil {
		return
	}
	if grid && r.IsArray && len(r.Shape) == 2 {
		if g, err := r.Grid(); err == nil {
			fmt.Print(g)
			return
		}
	}
	out := r.String()
	fmt.Print(out)
	if !strings.HasSuffix(out, "\n") {
		fmt.Println()
	}
}
