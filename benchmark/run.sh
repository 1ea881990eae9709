#!/usr/bin/env bash
# The repository benchmark's one command; see benchmark/README.md and
# `benchmark/run.sh --help`.
exec python3 "$(dirname "$0")/run.py" "$@"
