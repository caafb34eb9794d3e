// Command workflowlint reads every YAML file under the given directories
// (default .github/workflows) and fails when a mapping repeats a key — the
// defect that silently merged two CI jobs into one when a job's own key
// was lost. It understands the block-style subset workflows are written
// in: indentation-nested mappings, "- " sequence items, comments, quoted
// keys and block scalars; flow collections are treated as opaque values.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{".github/workflows"}
	}
	bad := 0
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.y*ml"))
		if err != nil || len(files) == 0 {
			fmt.Fprintf(os.Stderr, "workflowlint: no workflow files under %s\n", dir)
			os.Exit(2)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
				os.Exit(2)
			}
			for _, p := range duplicateKeys(string(src)) {
				fmt.Fprintf(os.Stderr, "%s:%s\n", f, p)
				bad++
			}
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// scope is one open block mapping: the column its keys start at and the
// keys seen so far (with the line of first sight).
type scope struct {
	indent int
	keys   map[string]int
}

// duplicateKeys returns one "line: message" per key that repeats within
// its mapping.
func duplicateKeys(src string) []string {
	var problems []string
	var stack []scope
	blockScalar := -1 // indent of the key owning an open | or > scalar
	for n, line := range strings.Split(src, "\n") {
		body := strings.TrimLeft(line, " ")
		if body == "" || body[0] == '#' {
			continue
		}
		indent := len(line) - len(body)
		if blockScalar >= 0 {
			if indent > blockScalar {
				continue
			}
			blockScalar = -1
		}
		// A sequence item opens a fresh mapping at the column after "- ".
		for strings.HasPrefix(body, "- ") {
			for len(stack) > 0 && stack[len(stack)-1].indent > indent {
				stack = stack[:len(stack)-1]
			}
			trimmed := strings.TrimLeft(body[2:], " ")
			indent += len(body) - len(trimmed)
			body = trimmed
			for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
				stack = stack[:len(stack)-1]
			}
		}
		key, rest, ok := splitKey(body)
		if !ok {
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].indent > indent {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 || stack[len(stack)-1].indent < indent {
			stack = append(stack, scope{indent: indent, keys: map[string]int{}})
		}
		top := stack[len(stack)-1]
		if first, dup := top.keys[key]; dup {
			problems = append(problems, fmt.Sprintf("%d: duplicate key %q (first at line %d)", n+1, key, first))
		} else {
			top.keys[key] = n + 1
		}
		if rest = strings.TrimSpace(rest); strings.HasPrefix(rest, "|") || strings.HasPrefix(rest, ">") {
			blockScalar = indent
		}
	}
	return problems
}

// splitKey splits "key: value" at the mapping colon, honouring a quoted
// key; ok is false for a line that is not a mapping entry (a scalar
// continuation, a bare sequence value).
func splitKey(body string) (key, rest string, ok bool) {
	if q := body[0]; q == '"' || q == '\'' {
		end := strings.IndexByte(body[1:], q)
		if end < 0 || !strings.HasPrefix(body[end+2:], ":") {
			return "", "", false
		}
		return body[1 : end+1], body[end+3:], true
	}
	for i := 0; i < len(body); i++ {
		if body[i] == ':' && (i+1 == len(body) || body[i+1] == ' ') {
			return body[:i], body[i+1:], true
		}
		if body[i] == ' ' && i+1 < len(body) && body[i+1] == '#' {
			break
		}
	}
	return "", "", false
}
