"""The coefficient cache: strict record fields, incremental loads, concurrent writers."""

import fcntl
import json
import multiprocessing
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import append_records
from ktaquin import formats
from ktaquin.cli import EXIT_DISAGREEMENT, EXIT_OK, main
from ktaquin.coefficients import CoefficientRecord
from ktaquin.formats import (
    CacheConflictError,
    CacheFormatError,
    CacheRecord,
    cache_append,
    cache_load,
)


def _c_record(i: int, value: int = 1) -> CacheRecord:
    """A classical record with key ``c, [i], [], [i]``."""
    return CacheRecord(CoefficientRecord("c", (i,), (), (i,), value), 0.0)


def _doc(**changes) -> dict:
    doc = json.loads(_c_record(1).to_json())
    doc.update(changes)
    return doc


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _outcome(path: str):
    """The table, or the exception type and message, that ``cache_load`` gives."""
    try:
        return cache_load(path)
    except (CacheConflictError, CacheFormatError) as exc:
        return type(exc), str(exc)


def _cold(path: str):
    """``_outcome`` with nothing validated before, leaving the warm state as it was."""
    saved = dict(formats._validated)
    formats._validated.clear()
    try:
        return _outcome(path)
    finally:
        formats._validated.clear()
        formats._validated.update(saved)


class TestIntegerFields:
    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"value": 1.9}, "value must be an integer"),
            ({"value": True}, "value must be an integer"),
            ({"value": "1"}, "value must be an integer"),
            ({"lambda": [1.5]}, "lambda[0] must be an integer"),
            ({"mu": [True]}, "mu[0] must be an integer"),
            ({"nu": [1, 0.0]}, "nu[1] must be an integer"),
            ({"lambda": "1"}, "lambda must be a list of integers"),
        ],
    )
    def test_non_integer_is_rejected_not_truncated(self, tmp_path, changes, reason):
        path = str(tmp_path / "cache.jsonl")
        cache_append(path, _c_record(1))
        with open(path, "a") as fh:
            fh.write(json.dumps(_doc(**changes)) + "\n")
        with pytest.raises(CacheFormatError) as err:
            cache_load(path)
        assert str(err.value) == f"{path}:2: {reason}"

    def test_cli_exit_code(self, capsys, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        _write(path, (json.dumps(_doc(value=1.9)) + "\n").encode())
        code = main(["coeff", "C", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]", "--cache", path])
        err = capsys.readouterr().err
        assert code == EXIT_DISAGREEMENT
        assert f"{path}:1: value must be an integer" in err and "Traceback" not in err


class TestUtf8:
    def test_bad_byte_names_its_line(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache_append(path, _c_record(1))
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "c\xff"}\n')
        cache_append(path, _c_record(2))
        with pytest.raises(CacheFormatError) as err:
            cache_load(path)
        assert str(err.value) == f"{path}:2: not valid UTF-8"

    def test_lines_after_a_lone_cr_are_counted(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        _write(path, _c_record(1).to_json().encode() + b"\r\r\n\xfe\n")
        with pytest.raises(CacheFormatError, match=r":3: not valid UTF-8$"):
            cache_load(path)

    def test_cli_exit_code(self, capsys, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        _write(path, b"\xff\xfe\n")
        code = main(["coeff", "C", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]", "--cache", path])
        err = capsys.readouterr().err
        assert code == EXIT_DISAGREEMENT
        assert f"{path}:1: not valid UTF-8" in err and "Traceback" not in err


class TestIncrementalLoad:
    def test_warm_load_parses_only_new_lines(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.jsonl")
        for i in range(1, 6):
            cache_append(path, _c_record(i))
        assert len(cache_load(path)) == 5
        parsed = []
        real = CacheRecord.from_json.__func__
        monkeypatch.setattr(
            CacheRecord, "from_json", classmethod(lambda cls, line: parsed.append(line) or real(cls, line))
        )
        cache_append(path, _c_record(6))
        assert len(cache_load(path)) == 6
        assert len(parsed) == 1 and json.loads(parsed[0])["lambda"] == [6]

    def test_returned_table_is_a_copy(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache_append(path, _c_record(1))
        cache_append(path, _c_record(2))
        first = cache_load(path)
        expected = dict(first)
        first.clear()
        first[_c_record(3).key()] = _c_record(3)
        assert cache_load(path) == expected == _cold(path)

    def test_unterminated_last_line_is_not_memoized(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache_append(path, _c_record(1))
        with open(path, "a") as fh:
            fh.write(_c_record(2).to_json())  # a complete record with no newline yet
        assert len(cache_load(path)) == 2
        with open(path, "a") as fh:
            fh.write('{"kind": "c"}\n')  # completes the line into a malformed one
        assert _outcome(path) == _cold(path)
        assert _outcome(path)[0] is CacheFormatError

    def test_failed_load_leaves_the_validated_state(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache_append(path, _c_record(1))
        cache_load(path)
        size = os.path.getsize(path)
        cache_append(path, _c_record(2))
        with open(path, "a") as fh:
            fh.write("{\n")
        assert _outcome(path)[0] is CacheFormatError
        os.truncate(path, size)  # back to what the first load validated
        assert _outcome(path) == _cold(path) == {_c_record(1).key(): _c_record(1)}

    # one step in a random history of the cache file
    _STEPS = st.one_of(
        st.tuples(st.just("append"), st.integers(1, 4)),
        st.tuples(st.just("conflict"), st.integers(1, 4)),
        st.tuples(st.just("torn"), st.sampled_from(['{"kind": "c", "lam', "{", '{"kind": "c"}'])),
        st.tuples(st.just("blank"), st.sampled_from([b"\n", b"\r\n", b"  \r\n", b"\r"])),
        st.tuples(st.just("truncate"), st.tuples(st.floats(0.0, 1.0), st.booleans())),
        st.tuples(st.just("flip"), st.tuples(st.floats(0.0, 1.0), st.sampled_from(b"0 x\n\xff"))),
        st.tuples(st.just("replace"), st.lists(st.integers(1, 4), max_size=3)),
    )

    @staticmethod
    def _apply(path: str, step) -> None:
        op, arg = step
        if op == "append":
            cache_append(path, _c_record(arg))
        elif op == "conflict":
            cache_append(path, _c_record(arg, value=2))
        elif op == "torn":
            with open(path, "a") as fh:
                fh.write(arg)
        elif op == "blank":
            with open(path, "ab") as fh:
                fh.write(arg)
        elif op == "truncate":  # anywhere, or just after a newline
            where, whole_lines = arg
            with open(path, "rb") as fh:
                data = fh.read()
            size = int(len(data) * where)
            os.truncate(path, data.rfind(b"\n", 0, size) + 1 if whole_lines else size)
        elif op == "flip":  # one byte inside what was validated, same length
            where, byte = arg
            prefix = formats._validated.get(path, (b"",))[0]
            size = min(len(prefix), os.path.getsize(path))
            if size:
                pos = min(int(size * where), size - 1)
                with open(path, "r+b") as fh:
                    fh.seek(pos)
                    old = fh.read(1)
                    fh.seek(pos)
                    fh.write(bytes([byte]) if old != bytes([byte]) else b"1")
        else:  # replace the file as a whole
            fresh = path + ".new"
            _write(fresh, b"")
            for i in arg:
                cache_append(fresh, _c_record(i))
            os.replace(fresh, path)

    @settings(max_examples=150)
    @given(st.lists(_STEPS, min_size=1, max_size=12))
    def test_warm_equals_cold(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.jsonl")
            cache_append(path, _c_record(1))
            try:
                for step in steps:
                    self._apply(path, step)
                    assert _outcome(path) == _cold(path), step
            finally:
                formats._validated.pop(path, None)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(_STEPS, min_size=1, max_size=12), st.integers(1, 300))
    def test_small_slices_merge_like_one(self, steps, size):
        # slices as small as one line: the same table, exception and line number
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.jsonl")
            cache_append(path, _c_record(1))
            try:
                for step in steps:
                    self._apply(path, step)
                    whole = _cold(path)
                    with mock.patch.object(formats, "_MERGE_SLICE", size):
                        assert _outcome(path) == _cold(path) == whole, step
            finally:
                formats._validated.pop(path, None)

    def test_slices_end_at_newlines(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.jsonl")
        for i in range(1, 5):
            cache_append(path, _c_record(i))
        chunks = []
        real = formats._merge
        monkeypatch.setattr(formats, "_merge", lambda p, t, chunk, n: chunks.append(chunk) or real(p, t, chunk, n))
        monkeypatch.setattr(formats, "_MERGE_SLICE", 10)
        assert len(cache_load(path)) == 4
        assert chunks[-1] == b"" and all(c.endswith(b"\n") and c.count(b"\n") == 1 for c in chunks[:-1])
        assert len(chunks) == 5


class TestConcurrentWriters:
    def test_two_processes_append_whole_lines(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        writers = [
            ctx.Process(target=append_records, args=(path, [_c_record(i) for i in range(k, k + 200)], barrier))
            for k in (1, 201)
        ]
        for w in writers:
            w.start()
        for w in writers:
            w.join(timeout=120)
        assert all(not w.is_alive() and w.exitcode == 0 for w in writers)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 400
        keys = {CacheRecord.from_json(line).key() for line in lines}
        assert keys == {_c_record(i).key() for i in range(1, 401)}
        assert len(cache_load(path)) == 400

    def test_conflict_from_another_process_between_calls(self, capsys, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        argv = ["coeff", "D", "--lambda", "[2]", "--mu", "[2,1]", "--nu", "[3,1]", "--cache", path]
        assert main(argv) == EXIT_OK
        conflicting = CacheRecord(CoefficientRecord("D", (2,), (2, 1), (3, 1), -4), 0.0)
        writer = multiprocessing.get_context("spawn").Process(
            target=append_records, args=(path, [conflicting])
        )
        writer.start()
        writer.join(timeout=120)
        assert not writer.is_alive() and writer.exitcode == 0
        capsys.readouterr()
        assert main(argv) == EXIT_DISAGREEMENT
        assert "disagreement" in capsys.readouterr().err

    def test_load_while_other_processes_append(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        _write(path, b"")
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(3)
        writers = [
            ctx.Process(target=append_records, args=(path, [_c_record(i) for i in range(k, k + 2000)], barrier))
            for k in (1, 2001)
        ]
        for w in writers:
            w.start()
        sizes = set()
        try:
            barrier.wait(timeout=120)
            while any(w.is_alive() for w in writers):
                sizes.add(len(cache_load(path)))  # a half-written line would raise here
            assert all(w.exitcode == 0 for w in writers)
            assert sizes - {0, 4000}  # some load saw the appends in progress
            assert len(cache_load(path)) == 4000
        finally:
            for w in writers:
                w.join(timeout=120)
            formats._validated.pop(path, None)

    def test_load_waits_for_an_append_in_progress(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        line = (_c_record(1).to_json() + "\n").encode()
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        pool = ThreadPoolExecutor(1)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # an appender that has written half its line
            os.write(fd, line[:10])
            load = pool.submit(cache_load, path)
            with pytest.raises(FutureTimeout):
                load.result(timeout=0.2)
            os.write(fd, line[10:])
            fcntl.flock(fd, fcntl.LOCK_UN)
            assert load.result(timeout=60) == {_c_record(1).key(): _c_record(1)}
        finally:
            os.close(fd)  # releases the lock before the pool waits for the load
            pool.shutdown()
            formats._validated.pop(path, None)
