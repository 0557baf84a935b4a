"""Byte-level pins of every synthesized workload shape.

Each digest is a sha256 over every slot of every :class:`Instruction` of a
workload (``seq``, ``thread_id``, ``pc``, ``klass``, register, memory,
branch, ``sync``, ``sync_object`` and ``is_kernel`` fields), together with
each trace's name and thread id and the workload's barrier count.  An
instruction hashes as the ``repr`` of its slot list, with the two enum slots
(``klass``, ``sync``) spelled ``<type>.<int>``, so the digests do not depend
on the Python version's enum formatting and pin the slot types as well as
their values.

The constants were computed once and must never be regenerated to make a
change pass: a changed digest means the generator drew a different trace,
which silently moves every simulated statistic.  The shapes cover every SPEC
and PARSEC profile as a single thread, a 2-copy multiprogram run, a 4-thread
multithreaded run and a many-core run with shared data.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter

import pytest

from repro.common.isa import Instruction
from repro.trace.multithreaded import generate_multithreaded_workload
from repro.trace.profiles import PARSEC_PROFILES, SPEC_PROFILES
from repro.trace.workloads import (
    homogeneous_multiprogram_workload,
    manycore_workload,
    single_threaded_workload,
)

PROFILES = sorted(SPEC_PROFILES) + sorted(PARSEC_PROFILES)


def _profile(name):
    return SPEC_PROFILES.get(name) or PARSEC_PROFILES[name]


_SLOTS = attrgetter(*Instruction.__slots__)
_ENUM_SLOTS = tuple(Instruction.__slots__.index(slot) for slot in ("klass", "sync"))


def _slot_line(instruction) -> bytes:
    values = list(_SLOTS(instruction))
    for index in _ENUM_SLOTS:
        value = values[index]
        values[index] = f"{type(value).__name__}.{int(value)}"
    return repr(values).encode()


def workload_digest(workload) -> str:
    """sha256 of every instruction slot of every trace of ``workload``."""
    digest = hashlib.sha256()
    digest.update(f"{workload.kind}|{workload.num_barriers}\n".encode())
    for trace in workload.traces:
        digest.update(f"{trace.name}|{trace.thread_id}|{len(trace)}\n".encode())
        digest.update(b"\n".join(_slot_line(instruction) for instruction in trace))
    return digest.hexdigest()[:24]


SHAPES = {
    "single": lambda name: single_threaded_workload(name, instructions=5_000, seed=0),
    "multiprogram": lambda name: homogeneous_multiprogram_workload(
        name, 2, instructions=1_500, seed=1
    ),
    "multithreaded": lambda name: generate_multithreaded_workload(
        _profile(name), 4, total_instructions=4_000, seed=2
    ),
    "manycore": lambda name: manycore_workload(
        name, 8, instructions_per_thread=250, seed=3, shared_fraction=0.2
    ),
}


PINS = {
    "manycore": {
        "ammp": "11a1083c3032c93f9e09ab78",
        "applu": "1c5139ac896f22c66c51a44f",
        "apsi": "303299eb853ad5dca1b4f2f9",
        "art": "818bae749d217096cac162cf",
        "bzip2": "70fe80505fd9bae4d4dfb8d3",
        "crafty": "ea5d418f1c189013e56da25a",
        "eon": "0b3f096b147e5460d86ef6bc",
        "equake": "92b9c126978685377310669a",
        "facerec": "71093ba9e7ec41a1f0401108",
        "fma3d": "9b48cfd0ce943bff8ac922c1",
        "galgel": "5bf6987b57febe146211f6c0",
        "gap": "cf3fbc4ae96ed2590356a6cf",
        "gcc": "7a58a6a665a9aed74f5e699e",
        "gzip": "895cb7c0a1906c5902e44007",
        "lucas": "bb6fba5cc13de265342ecd05",
        "mcf": "ccfb15d699a7984dbff1b6a3",
        "mesa": "6fd9b85984165f2cfab3cd9d",
        "mgrid": "598588ea6d1a426bb4e7ea1a",
        "parser": "d6a687a9093166c2a1b511dc",
        "perlbmk": "dd33c859fdf08a59412632ee",
        "sixtrack": "834460ad2a6bf23f2816f7e9",
        "swim": "000da9de00efd906079a5d12",
        "twolf": "ba50b6591b8615cd6634ad47",
        "vortex": "565624d644f61300d43ef1b5",
        "vpr": "99e909e6d328723bd3cb9807",
        "wupwise": "eed4fb8ccb48e7a71f77c1f5",
        "blackscholes": "67c4c6a5bddc89755866df1c",
        "bodytrack": "bebb1a8e6cebdb27a8b94e44",
        "canneal": "14ae143df0d867f718d134b6",
        "dedup": "7003fe894d492c56fa97f69e",
        "fluidanimate": "f67541f738211a6da993b155",
        "streamcluster": "eaadbfd23b0695a9ce5b0d90",
        "swaptions": "040a08c2795236769a941d22",
        "vips": "4438a651508aa829aaca372b",
        "x264": "30b8d4fec07297713b270a74",
    },
    "multiprogram": {
        "ammp": "2fd9f4620e86f86905625fb4",
        "applu": "35a0906305e1b2c767fca4d6",
        "apsi": "862775b11ae76ae9f844e212",
        "art": "c7cfd0456d4dd4cc3569941b",
        "bzip2": "ca4c225ae7e2bd2455102a73",
        "crafty": "067710b0efc2ea90feb7a85c",
        "eon": "a01be43f3fc94220b133e6ca",
        "equake": "ae609c100ad800e8415fedbd",
        "facerec": "1fd09e2cb9db2db594d3b6fb",
        "fma3d": "7c6129e5eb404c95f250c281",
        "galgel": "08bf7dc9da64b4cf30c4ae11",
        "gap": "4db8929403ddb89ff739c6e8",
        "gcc": "60f3e680ff78e56f6f6d3e85",
        "gzip": "ca54be7f7c6f2c85692515bb",
        "lucas": "fcb54d859e91a4c8d487b963",
        "mcf": "197cf0ef7707df21b724ea14",
        "mesa": "f83dfcab11e2ea37903ba8f0",
        "mgrid": "6b640961aa671b2d4fc853e0",
        "parser": "c143b292c24ea70445c2950f",
        "perlbmk": "4ab928e6db8b6494f3bd4042",
        "sixtrack": "d58e30c154ae651e8c44ef03",
        "swim": "34a3727ce562bf5aad6d12c8",
        "twolf": "ffe2ece1b7cc735768b56866",
        "vortex": "b7e3c6e39c6da43dccb5b97f",
        "vpr": "997a9ccc84bc27161c752427",
        "wupwise": "e2840daa1f3f72844d01348a",
        "blackscholes": "9ae88d2b455f36294d7ffd0a",
        "bodytrack": "8788472ba5f122eed4bf1215",
        "canneal": "e548acfd3f6eaf6f3fbb1db8",
        "dedup": "e506f348fee7a07b092d32b9",
        "fluidanimate": "f0ca124d194b63df3bc1b570",
        "streamcluster": "0665a2c8a4a128be47ca73c5",
        "swaptions": "e5f30fdeb6c0e46e067ea693",
        "vips": "4f28c3106a460355aabfb047",
        "x264": "3518d66e13a6ccb9f116a06b",
    },
    "multithreaded": {
        "ammp": "6338f24899f58594859718c9",
        "applu": "1f7a18f006961f86ea7b82f3",
        "apsi": "bc9b61082a7424c2ae1db32e",
        "art": "c19377a845b9619eaad1d263",
        "bzip2": "3922f1134f825aa5e50b0008",
        "crafty": "dbaece29b4e25ddce26fd578",
        "eon": "e788f3dbb92f6f8fd8d141c7",
        "equake": "b8c5e6c53d461cfbfde2a782",
        "facerec": "5d5bff072229a25c14a38727",
        "fma3d": "0c3184adb1f9599a8d8b6266",
        "galgel": "f73e6444266769205d8a9e9f",
        "gap": "32d3513411fca9baff135e9a",
        "gcc": "b306360c4a29864257e427a6",
        "gzip": "3f5fb670b4f34f63760783c0",
        "lucas": "85d63fa8e6ecd8dd37648280",
        "mcf": "e82df013660e88186b98ac90",
        "mesa": "42c0ce5198a57612745e740f",
        "mgrid": "f3d2e26a8e2a8bc2ae7d7b55",
        "parser": "82f58853e32c5bba77cc73a6",
        "perlbmk": "64caedd7c258aaf8862b649a",
        "sixtrack": "105186f6533d7a4e4d940619",
        "swim": "668a447aadb1b61028988b10",
        "twolf": "e3fa3e0cfc34dc0716965c15",
        "vortex": "63a6979502388415b84eb5a8",
        "vpr": "29459070c4252581fb2d1fb1",
        "wupwise": "fa4d436a77b031a88e848928",
        "blackscholes": "a40e1bb00a8028a8d3dab29a",
        "bodytrack": "d9514d5e1dd3ed862d513a53",
        "canneal": "ecd4086630daa58db852374e",
        "dedup": "18e62536b80c250e8b1f95eb",
        "fluidanimate": "f3800078c7fb70fec479e3fc",
        "streamcluster": "9f00a4845a21d301fc8fcf52",
        "swaptions": "b49d88694fb93f151fc1e98a",
        "vips": "a0ad70c875ce744490eac871",
        "x264": "903229fa9daa4c24a9d75465",
    },
    "single": {
        "ammp": "b9292c59d0f857df6fa125a5",
        "applu": "b6a33235532ef1ffeb1f9e48",
        "apsi": "8dbf6044ba737880c5d36787",
        "art": "678be2b08fed2b8a370bf67e",
        "bzip2": "7411f03587a864e891a48889",
        "crafty": "6036d36e85799cd8c8843dff",
        "eon": "ef220bd91d364f76ae160492",
        "equake": "17056b3ab1a5aba0ef5b3e09",
        "facerec": "62c74afeb7dc3bea86da1fcb",
        "fma3d": "b40f608d8c1266c409a47b13",
        "galgel": "58d7659f5e522f9c53893221",
        "gap": "7626418771f0f5ae0b6dff36",
        "gcc": "7ec947612843a8fa2bdc1162",
        "gzip": "f2d0b3829607c130e1a64ce8",
        "lucas": "c0a3e6995f49d2f0c553e0dd",
        "mcf": "7f0df63090e80588b0aae822",
        "mesa": "f42e5cbe51c122b6fdadd0bc",
        "mgrid": "c000106a8ad9d5889d8db2bd",
        "parser": "86771059de6de0a405931a50",
        "perlbmk": "28cb637ba70ab6f4fa338305",
        "sixtrack": "b99642630f4fb41005c9f16c",
        "swim": "baaef84e882e53c9c623bbae",
        "twolf": "38140c5652fc0450ea32d830",
        "vortex": "6c20a8b791924d88be1fe754",
        "vpr": "3ca007728027b0f1eb54637e",
        "wupwise": "70d6cf943c76402163a2fc11",
        "blackscholes": "6be7d434a3d57fe39936ed31",
        "bodytrack": "aae5ffa49de8e01eef7a6795",
        "canneal": "cab6a7aaafcf806d6e74a791",
        "dedup": "7fde6e6c24bcc6a3ec8a76a7",
        "fluidanimate": "e506cb09d53cacab4040fdf1",
        "streamcluster": "edae38d3f4023da79196a1a7",
        "swaptions": "9e81d836ec30058c5bbabb79",
        "vips": "888b7d93275faf63a9615046",
        "x264": "a853bb2431327a036a1a8011",
    },
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_profile_matches_its_pin(shape):
    build = SHAPES[shape]
    actual = {name: workload_digest(build(name)) for name in PROFILES}
    mismatched = sorted(name for name in PROFILES if actual[name] != PINS[shape][name])
    assert not mismatched, f"{shape}: traces changed for {mismatched}"
