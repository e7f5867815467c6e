#!/usr/bin/env bash
# Repo-hygiene gate, run by CI and runnable locally: no build tree or
# snapshot scratch file may ever be committed, and .gitignore must keep
# covering the patterns that prevent it.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

tracked="$(git ls-files |
  grep -E '^build[^/]*/|^\.bench_build/|\.sosnap(\.tmp|\.gen[0-9]*)?$' || true)"
if [[ -n "$tracked" ]]; then
  echo "ERROR: build trees / snapshot scratch tracked by git:" >&2
  echo "$tracked" >&2
  fail=1
fi

# .gitignore coverage: these representative paths must all be ignored.
for path in build/x build-asan/x build-new-flavor/x .bench_build/x \
            scratch.sosnap scratch.sosnap.tmp scratch.sosnap.gen2; do
  if ! git check-ignore -q "$path"; then
    echo "ERROR: .gitignore no longer covers '$path'" >&2
    fail=1
  fi
done

if [[ "$fail" -eq 0 ]]; then
  echo "tree hygiene OK"
fi
exit "$fail"
