#!/usr/bin/env bash
# Builds the benchmark, and with it the program under test, from the
# sources of this checkout, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload topn-hot --seed 1 --seconds 6 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout.
# The binary is rebuilt only when a Go source or module file changed, so
# repeated runs do not relink right before they measure.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# Paths relative to the root, so that the stamp names the code and not
# where the checkout lives.
stamp=$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print0 |
	sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)
if [[ ! -x "$out/perfbench" || "$(cat "$out/perfbench.stamp" 2>/dev/null)" != "$stamp" ]]; then
	(cd "$root/perfbench" && go build -o "$out/perfbench" .)
	echo "$stamp" >"$out/perfbench.stamp"
fi
# The run header records the stamp as the identity of the code under test,
# which matters where no git metadata exists.
export PERFBENCH_SOURCE_SHA256="$stamp"
exec "$out/perfbench" "$@"
