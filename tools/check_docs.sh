#!/usr/bin/env bash
# Structural documentation checks, cheap enough to run before Doxygen.
#
#   1. Every public header under src/ carries a file-level `/// \file`
#      comment block (what the API index is built from).
#   2. No `TODO(doc)` markers anywhere in the tree — a doc TODO is a doc
#      bug once WARN_AS_ERROR is on.
#   3. docs/FORMAT.md tracks src/io/container.h: every SectionType
#      enumerator and every size-asserted record struct must be named in
#      the spec, with its byte size. Adding a section or widening a record
#      without documenting it fails here, not in a reader's hexdump.
#   4. Every header under src/ is #included by some file under src/,
#      tools/, bench/, examples/ or perfbench/ other than its own .cc. A
#      module that only tests include is library code no command, bench,
#      example or benchmark workload reaches.
#
# Exits nonzero and names every offending file. Run from the repo root:
#   tools/check_docs.sh
set -u

cd "$(dirname "$0")/.."

fail=0

missing=$(grep -rL '\\file' --include='*.h' src/ || true)
if [ -n "$missing" ]; then
  echo "error: headers missing a file-level '/// \\file' block:" >&2
  echo "$missing" | sed 's/^/  /' >&2
  fail=1
fi

todos=$(grep -rln 'TODO(doc)' --include='*.h' --include='*.cc' \
  --include='*.cpp' --include='*.md' src/ tools/ tests/ bench/ docs/ \
  README.md DESIGN.md 2>/dev/null | grep -v 'tools/check_docs.sh' || true)
if [ -n "$todos" ]; then
  echo "error: unresolved TODO(doc) markers in:" >&2
  echo "$todos" | sed 's/^/  /' >&2
  fail=1
fi

# FORMAT.md <-> container.h drift gate. The spec promises byte-level
# fidelity, so it must at least name every section type and every
# size-asserted record struct (with the asserted size) from the header.
if [ ! -f docs/FORMAT.md ]; then
  echo "error: docs/FORMAT.md is missing (the container byte spec)" >&2
  fail=1
else
  sections=$(sed -n '/enum class SectionType/,/};/p' src/io/container.h |
    grep -oE '^[[:space:]]*k[A-Za-z0-9]+[[:space:]]*=' | tr -d ' =')
  for section in $sections; do
    if ! grep -q "$section" docs/FORMAT.md; then
      echo "error: SectionType::$section (src/io/container.h) is not" \
           "documented in docs/FORMAT.md" >&2
      fail=1
    fi
  done
  grep -oE 'static_assert\(sizeof\([A-Za-z0-9]+\) == [0-9]+' \
      src/io/container.h |
    sed 's/static_assert(sizeof(//; s/) == / /' |
  while read -r struct bytes; do
    if ! grep -q "$struct" docs/FORMAT.md; then
      echo "error: record struct $struct (src/io/container.h) is not" \
           "documented in docs/FORMAT.md" >&2
      exit 1
    fi
    # The size must appear on a line that names the struct (table row or
    # prose), so a stale copy of the spec fails when a record widens.
    if ! grep "$struct" docs/FORMAT.md | grep -q "$bytes"; then
      echo "error: docs/FORMAT.md never states that $struct is $bytes" \
           "bytes (src/io/container.h asserts it)" >&2
      exit 1
    fi
  done || fail=1
fi

# Headers are included by their path under src/ ("io/container.h").
test_only=""
for header in $(cd src && find . -name '*.h' | sed 's|^\./||' | sort); do
  own="src/${header%.h}.cc"
  users=$(grep -rlF "#include \"$header\"" src/ tools/ bench/ examples/ \
    perfbench/ | grep -vxF "$own" || true)
  if [ -z "$users" ]; then
    test_only="$test_only $header"
  fi
done
if [ -n "$test_only" ]; then
  echo "error: headers under src/ that nothing outside tests/ includes:" >&2
  for header in $test_only; do echo "  $header" >&2; done
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_docs: OK ($(find src -name '*.h' | wc -l) headers carry \\file blocks and have a non-test includer, no TODO(doc), FORMAT.md tracks container.h)"
