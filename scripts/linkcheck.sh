#!/usr/bin/env bash
# Documentation link check: fails if README.md or docs/*.md reference a
# repository file that does not exist, or a `delta` subcommand the CLI
# does not dispatch, or if a Rust comment cites a `*.md` file that does
# not exist. Pure grep/sed — no dependencies beyond coreutils —
# so it runs anywhere CI does. Usage: scripts/linkcheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
docs=(README.md docs/*.md)

# ---- 1. Markdown link targets: [text](path) ------------------------------
# External URLs and pure anchors are skipped; everything else must exist,
# either repo-relative or relative to the document's own directory.
for doc in "${docs[@]}"; do
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$path" ] && [ ! -e "$(dirname "$doc")/$path" ]; then
      echo "linkcheck: $doc links to missing file: $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//')
done

# ---- 2. Backticked repository paths ---------------------------------------
# Any `path/with/slashes.ext` mention of a source/config file must exist.
# Skipped: globs and placeholders (*, <, {, …), generated or scratch
# locations (results/, target/, absolute paths), and slash-less names.
for doc in "${docs[@]}"; do
  while IFS= read -r path; do
    case "$path" in
      *'*'* | *'<'* | *'{'* | *'…'*) continue ;;
      results/* | target/* | /*) continue ;;
      */*) ;;
      *) continue ;;
    esac
    if [ ! -e "$path" ]; then
      echo "linkcheck: $doc references missing file: $path"
      fail=1
    fi
  done < <(grep -oE '`[^` ]+\.(rs|md|json|toml|yml|yaml|sh|csv)`' "$doc" | tr -d '\`')
done

# ---- 3. `delta <subcommand>` mentions -------------------------------------
# The valid set is extracted from the CLI's own dispatch match in
# crates/cli/src/main.rs (plus `help`, handled before dispatch), so the
# check tracks the binary instead of a hand-maintained list.
valid=$(sed -n '/^fn run(positional/,/^}$/p' crates/cli/src/main.rs \
  | grep -oE 'Some\("[a-z-]+"\)' | sed 's/Some("//; s/")//')
valid="$valid help"
for doc in "${docs[@]}"; do
  while IFS= read -r word; do
    ok=0
    for v in $valid; do
      [ "$word" = "$v" ] && ok=1 && break
    done
    if [ "$ok" = 0 ]; then
      echo "linkcheck: $doc mentions unknown delta subcommand: delta $word"
      fail=1
    fi
  done < <(grep -oE '\bdelta [a-z-]+' "$doc" | sed 's/^delta //; s/-$//' | sort -u)
done

# ---- 4. Markdown files cited in Rust comments ----------------------------
# A `NAME.md` (or `dir/NAME.md`) in a `//` comment must exist relative to
# the repository root or to a directory enclosing the citing file, so a
# comment cannot send its reader to a document that is not there.
while IFS= read -r hit; do
  file=${hit%%:*}
  for name in $(grep -oE '[A-Za-z0-9_./-]+\.md\b' <<< "${hit#*:}"); do
    dir=$(dirname "$file")
    until [ -e "$dir/$name" ] || [ "$dir" = . ]; do
      dir=$(dirname "$dir")
    done
    if [ ! -e "$dir/$name" ]; then
      echo "linkcheck: $file cites missing file: $name"
      fail=1
    fi
  done
done < <(grep -roE --include='*.rs' --exclude-dir=target '//.*\.md\b.*' \
  crates tests examples perfbench/src vendor)

if [ "$fail" != 0 ]; then
  echo "linkcheck: FAILED"
  exit 1
fi
echo "linkcheck: OK (${#docs[@]} documents)"
