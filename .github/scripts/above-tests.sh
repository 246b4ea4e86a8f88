#!/bin/sh
# Prints every line above the first `#[cfg(test)]` of each file named, as
# `path:line: text` — library code without its test modules, for the CI
# guards to grep. With no arguments: every Rust file under crates/*/src.
[ "$#" -gt 0 ] || set -- $(find crates/*/src -name '*.rs')
for f in "$@"; do
  awk -v f="$f" '/#\[cfg\(test\)\]/{exit} {print f ":" NR ": " $0}' "$f"
done
