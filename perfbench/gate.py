"""Output checks: digests of program outputs against the committed table.

``digests.json`` holds, for the code the benchmark was defined on:

- ``cli``: argv (without ``--cache``) -> sha256 of the command's stdout, with
  the cache directory in ``config.cache`` replaced by a placeholder;
- ``battery``: battery seed -> criterion id -> sha256 of the criterion's
  result without its ``seconds`` field.

``make_digests.py`` writes the table.
"""

from __future__ import annotations

import hashlib
import json
import os

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
CACHE_PLACEHOLDER = '"cache": "<cache>"'


def load_table(path=TABLE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_digest(stdout, cache_dir):
    """Digest of a CLI command's stdout with the cache path blanked out."""
    return _sha(stdout.replace('"cache": ' + json.dumps(cache_dir), CACHE_PLACEHOLDER))


def criterion_digest(result):
    """Digest of one acceptance criterion result, timing excluded."""
    body = {k: v for k, v in result.items() if k != "seconds"}
    return _sha(json.dumps(body, sort_keys=True, default=str))


def check_cli(table, key, stdout, cache_dir):
    """None when the output matches the table, else why it does not."""
    want = table["cli"].get(key)
    if want is None:
        return "no digest recorded for %r" % key
    if cli_digest(stdout, cache_dir) != want:
        return "output differs from the recorded digest"
    return None


def check_criterion(table, battery_seed, result):
    if not result.get("pass"):
        return "criterion %s did not pass" % result.get("id")
    want = table["battery"].get(str(battery_seed), {}).get(str(result["id"]))
    if want is None:
        return "no digest recorded for criterion %s" % result.get("id")
    if criterion_digest(result) != want:
        return "criterion %s result differs from the recorded digest" % result["id"]
    return None
