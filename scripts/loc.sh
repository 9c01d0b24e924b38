#!/usr/bin/env bash
# Code-line count per crate: non-blank lines that are not `//` comments,
# up to the first `mod tests {` of each file under <crate>/src, excluding
# `tests.rs`. Usage: scripts/loc.sh [crate-dir ...] (default: every crate
# under crates/). Add -v as the first argument for a per-file breakdown.
# The last line counts the public `RuntimeBuilder` setters (the builder
# knobs), leaving out `build`, `#[doc(hidden)]` items and
# `cfg(feature = "chaos")` items.
set -euo pipefail
cd "$(dirname "$0")/.."

verbose=0
if [[ "${1:-}" == "-v" ]]; then
    verbose=1
    shift
fi
crates=("$@")
if [[ ${#crates[@]} -eq 0 ]]; then
    crates=(crates/*)
fi

total=0
for crate in "${crates[@]}"; do
    crate="${crate%/}"
    sum=0
    while IFS= read -r file; do
        n=$(awk '/^[[:space:]]*mod tests \{/ { exit }
                 /^[[:space:]]*$/ { next }
                 /^[[:space:]]*\/\// { next }
                 { n++ }
                 END { print n + 0 }' "$file")
        if [[ $verbose -eq 1 ]]; then
            printf '  %6d  %s\n' "$n" "$file"
        fi
        sum=$((sum + n))
    done < <(find "$crate/src" -name '*.rs' ! -name 'tests.rs' | sort)
    printf '%6d  %s/src\n' "$sum" "$crate"
    total=$((total + sum))
done
printf '%6d  total\n' "$total"

knobs=$(awk '/^impl RuntimeBuilder \{/ { inside = 1; next }
             inside && /^\}/ { inside = 0 }
             !inside { next }
             /#\[doc\(hidden\)\]|#\[cfg\(feature = "chaos"\)\]/ { skip = 1 }
             /^[[:space:]]*pub fn / {
                 if (!skip && $0 !~ /pub fn build\(/) n++
                 skip = 0
             }
             END { print n + 0 }' crates/core/src/config.rs)
printf '%6d  builder knobs\n' "$knobs"
