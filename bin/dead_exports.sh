#!/usr/bin/env bash
# dead_exports.sh [ROOT]
#
# Exits 1, naming file and value, when a `val` declared in lib/*/*.mli
# is named by no .ml file outside its own module under lib, bin, bench,
# examples or test.  ROOT (default: the current directory) is the
# repository root.
#
# The check is word-level and therefore conservative: any occurrence of
# the name as a word in another .ml counts as a caller -- a call, a
# record field or local binding of the same name, even a comment.  So a
# value it flags is named nowhere outside its own module; delete it, or
# drop it from the .mli and let the compiler's unused-value warning
# guard it.
#
#   bash bin/dead_exports.sh
set -u
cd "${1:-.}" || exit 2
mls=$(find lib bin bench examples test -name '*.ml' | sort)
# shellcheck disable=SC2086
grep -oHE "[A-Za-z0-9_]+" $mls | sort -u \
| awk -F: '
    FNR == NR { split($0, v, "\t"); vals[++n] = v[1]; names[n] = v[2]; next }
    { files[$2]++; one[$2] = $1 }
    END {
      dead = 0
      for (i = 1; i <= n; i++) {
        own = vals[i]; sub(/\.mli$/, ".ml", own); w = names[i]
        if (files[w] > 1 || (files[w] == 1 && one[w] != own)) continue
        printf "dead_exports: %s: val %s has no caller outside its module\n",
          vals[i], w
        dead++
      }
      if (dead > 0) {
        printf "dead_exports: %d exported value(s) nothing calls\n", dead
        exit 1
      }
    }' <(grep -oE '^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_]*' \
          lib/*/*.mli /dev/null \
        | sed -E 's/^([^:]*):[[:space:]]*val[[:space:]]+/\1\t/') -
