"""One stage call and the artifact layer under it: manifests, freshness,
the process-wide caches of digests and parsed inputs, and forked children.

A :class:`StageRun` is one call of one stage. Its body writes into a sibling
``<dir>.partial`` directory, which :meth:`StageRun.commit` swaps in whole
with a manifest naming the config and every file the body read. A stage
refuses to run on stale or missing upstream artifacts unless forced.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import resource
import shutil
import time
from pathlib import Path

from .errors import (AcadSearchError, DataFormatError, MissingArtifactError,
                     StaleArtifactError)

# stage name -> (workdir subdirectory, config sections its manifest hashes);
# train-kg writes one subdirectory per KG model under its own. A stage hashes
# exactly the sections its own code reads; upstream ones are checked through
# the upstream manifests (StageRun._check_fresh).
STAGES: dict[str, tuple[str, tuple[str, ...]]] = {
    "synth": ("corpus", ("seed", "synth")),
    "ingest": ("corpus", ("paths",)),
    "index": ("index", ()),
    "splits": ("splits", ("seed", "split", "bm25")),
    "train-dense": ("dense", ("seed", "encoder")),
    "embed": ("embed", ()),
    "build-kg": ("kg", ("kg",)),
    "train-kg": ("kg_embed", ("seed", "kg", "kg_train")),
    "score": ("score", ("bm25",)),
    "tune": ("tune", ("fusion", "kg", "kg_train")),
    "eval": ("eval", ("seed", "eval", "fusion", "kg", "kg_train")),
    "ablate": ("ablate", ("seed", "kg", "kg_train", "fusion")),
}

# a manifest of any other version lists an incomplete set of inputs
MANIFEST_VERSION = 2


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# A file whose status changed less than this long before it was hashed may
# be rewritten within the same timestamp tick, so its digest is not kept.
_RACY_NS = 100_000_000

# path -> (stat key, sha256) of settled files, for the life of the process
_digest_cache: dict[str, tuple[tuple[int, ...], str]] = {}

# kind -> (content key, parsed value): the latest value of each kind, such as
# the corpus, a candidate file or the KG catalog, shared by every stage call
# in the process
_memo: dict[str, tuple[tuple, object]] = {}


def _stat_key(path: Path) -> tuple[int, ...]:
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _hash_file(path: Path) -> str:
    """sha256 of ``path``, read again only when its status has changed.

    A digest is kept only if the file's status was the same before and after
    the read and its ctime lies more than _RACY_NS before the clock read
    ahead of hashing ("racily clean", as git calls it). A ctime with no
    sub-second part marks a coarse filesystem, whose files are never kept.
    No call can set ctime back, so any later write changes the key.
    """
    now = time.time_ns()
    key = _stat_key(path)
    cached = _digest_cache.get(str(path))
    if cached is not None and cached[0] == key:
        return cached[1]
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    digest = h.hexdigest()
    ctime = key[4]
    if (ctime % 1_000_000_000 and now - ctime > _RACY_NS
            and _stat_key(path) == key):
        _digest_cache[str(path)] = (key, digest)
    return digest


def _memoized(kind: str, key: tuple, load):
    """``load()``, or the value it gave for ``key`` if that was the latest
    ``kind`` loaded in this process."""
    slot = _memo.get(kind)
    if slot is None or slot[0] != key:
        slot = _memo[kind] = (key, load())
    return slot[1]


def _read_json_object(path: Path, what: str) -> dict:
    """A JSON object from ``path``; DataFormatError naming it otherwise."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
        raise DataFormatError(f"{path}: unreadable {what}: {exc}") from None
    if not isinstance(data, dict):
        raise DataFormatError(f"{path}: {what} is not a JSON object")
    return data


# (stage, section) -> the key its hash leaves out: a workdir copied elsewhere
# stays fresh, and train-kg's output directory is named after the model
_UNHASHED = {("ingest", "paths"): "workdir", ("train-kg", "kg_train"): "model"}


def _stage_config(cfg: dict, stage: str) -> dict:
    """The config sections ``stage`` hashes, without its _UNHASHED key."""
    sections = {s: cfg[s] for s in STAGES[stage][1]}
    for (name, section), key in _UNHASHED.items():
        if name == stage:
            sections[section] = {k: v for k, v in cfg[section].items()
                                 if k != key}
    return sections


def stage_config_hash(cfg: dict, stage: str) -> str:
    return _hash_bytes(json.dumps(_stage_config(cfg, stage),
                                  sort_keys=True).encode())


def _cpu_s() -> float:
    """CPU seconds, user and system, of this process and its joined children."""
    return sum(r.ru_utime + r.ru_stime for r in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _producers(dir_rel: str) -> str:
    """The stage(s) that write ``dir_rel``, for 'run ... first' messages."""
    top, _, model = dir_rel.partition("/")
    if top == STAGES["train-kg"][0] and model:
        return f"`train-kg --model {model}`"
    return " or ".join(f"`{name}`" for name, (d, _) in STAGES.items() if d == top)


class StageRun:
    """One call of the stage ``name`` on ``workdir``.

    The body writes into :attr:`out`, a fresh sibling of the stage's
    directory, and opens every workdir file it reads through :meth:`input`,
    so the manifest :meth:`commit` writes lists exactly those files. A
    ``.partial`` or ``.old`` sibling that a killed call left is removed first.
    """

    def __init__(self, cfg: dict, workdir: Path, force: bool, name: str,
                 subdir: str = ""):
        self.cfg, self.workdir, self.force, self.name = cfg, workdir, force, name
        self.started, self.cpu = time.time(), _cpu_s()
        self.dest = workdir / STAGES[name][0] / subdir
        self.out = self.dest.with_name(self.dest.name + ".partial")
        self.aside = self.dest.with_name(self.dest.name + ".old")
        for leftover in (self.out, self.aside):
            if leftover.exists():
                shutil.rmtree(leftover)
        # the outermost directory this call creates, removed if the body fails
        self.made = next(d for d in (workdir, self.out.parent, self.out)
                         if not d.exists())
        self.out.mkdir(parents=True)
        self.reads: set[str] = set()
        self.checked: set[str] = set()
        # one hash per file per stage call, shared by upstream checks and
        # this stage's own manifest
        self.digests: dict[str, str] = {}

    def digest(self, rel: str) -> str:
        if rel not in self.digests:
            self.digests[rel] = _hash_file(self.workdir / rel)
        return self.digests[rel]

    def input(self, rel: str) -> Path:
        """``workdir/rel``, recorded as a read of this call, once its
        directory passes :meth:`_check_fresh`; the file itself must exist."""
        dir_rel = rel.rsplit("/", 1)[0]
        self._check_fresh(dir_rel)
        path = self.workdir / rel
        if not path.exists():
            raise MissingArtifactError(
                f"artifact {rel} is missing: run {_producers(dir_rel)} first")
        self.reads.add(rel)
        return path

    def _check_fresh(self, dir_rel: str) -> None:
        """Once per call: the artifacts in ``dir_rel`` exist and, unless
        forced, were built by this manifest version from the current config
        and inputs; then so were those of each input's directory, upstream."""
        if dir_rel in self.checked:
            return
        self.checked.add(dir_rel)
        manifest_path = self.workdir / dir_rel / "manifest.json"
        rerun = _producers(dir_rel)
        if not manifest_path.exists():
            raise MissingArtifactError(
                f"missing artifacts in {dir_rel!r}: run {rerun} first")
        manifest = _read_json_object(manifest_path, "stage manifest")
        if self.force:
            return
        stage = manifest.get("stage")
        if (manifest.get("version") != MANIFEST_VERSION
                or not isinstance(stage, str) or stage not in STAGES):
            raise StaleArtifactError(
                f"artifacts in {dir_rel!r} were built by another version; "
                f"re-run {rerun} or pass --force")
        if manifest.get("config_hash") != stage_config_hash(self.cfg, stage):
            raise StaleArtifactError(
                f"artifacts in {dir_rel!r} were built with a different "
                f"config; re-run {rerun} or pass --force")
        inputs = manifest.get("inputs")
        if not isinstance(inputs, dict):
            raise DataFormatError(f"{manifest_path}: stage manifest has no "
                                  f"inputs object")
        for rel, digest in inputs.items():
            path = self.workdir / rel
            found = path.is_file()
            if (not isinstance(digest, str) or rel.startswith("/")
                    or ".." in rel.split("/") or not found and path.exists()):
                raise DataFormatError(f"{manifest_path}: stage manifest input "
                                      f"{rel!r} does not map a workdir file to "
                                      f"a digest")
            if not found or self.digest(rel) != digest:
                raise StaleArtifactError(
                    f"input {rel!r} of {dir_rel!r} changed since it was "
                    f"built; re-run {rerun} or pass --force")
        for rel in inputs:
            self._check_fresh(rel.rsplit("/", 1)[0])

    def commit(self) -> None:
        """Write the manifest into :attr:`out`, then swap :attr:`out` in for
        the stage's directory: the old one is renamed aside, the new one in,
        and the old one removed, once the files it holds that this call did
        not write have moved into the new one.

        The manifest records the config sections the stage depends on, a
        sha256 of every file the body read through :meth:`input`, and the
        call's wall time and CPU time, its joined children's included.
        """
        manifest = {
            "stage": self.name,
            "version": MANIFEST_VERSION,
            "config_hash": stage_config_hash(self.cfg, self.name),
            "config": _stage_config(self.cfg, self.name),
            "inputs": {rel: self.digest(rel) for rel in self.reads},
            "duration_s": round(time.time() - self.started, 3),
            "cpu_s": round(_cpu_s() - self.cpu, 3),
        }
        (self.out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        replaced = self.dest.exists()
        if replaced:
            os.rename(self.dest, self.aside)
        os.rename(self.out, self.dest)
        if replaced:
            # what the old directory holds and this call did not write stays,
            # as when stages wrote in place: eval keeps each user channel's run
            for name in os.listdir(self.aside):
                if not os.path.lexists(self.dest / name):
                    os.rename(self.aside / name, self.dest / name)
            shutil.rmtree(self.aside)


def _child(conn, fn, args) -> None:
    """Forked process body: sends what ``fn(*args)`` returned, or whatever it
    raised, to the parent, which raises it there; so the child prints no
    traceback, and an interrupt ends it quietly."""
    try:
        result = fn(*args)
    except BaseException as exc:   # raised again by the parent
        result = exc
    with contextlib.suppress(BaseException):   # the parent may be gone
        conn.send(result)


def _join(label: str, proc, conn):
    """What the child ``label`` returned, once it has ended, or what it raised."""
    try:
        result = conn.recv()
    except EOFError:
        proc.join()
        code = proc.exitcode
        raise AcadSearchError(
            f"{label}: the process ended without a result "
            f"({f'signal {-code}' if code < 0 else f'exit code {code}'})"
        ) from None
    proc.join()
    if isinstance(result, BaseException):
        raise result
    return result


@contextlib.contextmanager
def run_in_child(label: str, fn, *args):
    """Run ``fn(*args)`` in a forked process named ``label``, and yield a
    function that waits for it on its first call and then returns what
    ``fn`` returned, or raises what it raised. On leaving, the process is
    stopped if it still runs, and joined."""
    # imported here, since only ablate forks: at the top, the import would
    # add about 0.6 MiB to the peak memory of every stage's process
    import multiprocessing
    fork = multiprocessing.get_context("fork")
    recv_end, send_end = fork.Pipe(duplex=False)
    proc = fork.Process(target=_child, args=(send_end, fn, args), name=label)
    proc.start()
    send_end.close()   # so the parent sees end-of-file once the child exits
    try:
        yield functools.cache(lambda: _join(label, proc, recv_end))
    finally:
        recv_end.close()
        if proc.is_alive():
            proc.terminate()
        proc.join()
