"""Seeded workload generator for the episode benchmark.

Writes one workload's input files (house JSON, lexicon and scenario JSON)
into a directory. The same workload name and seed always produce
byte-identical files; the seed moves object labels, poses and the visiting
order around, never the counts, so every seed exercises the same mix of
outcomes.

Generated houses are a grid of square rooms. The camera stands just inside
a room's -x wall, looking along +x, and every movable object of that room
lies in a box that is strictly inside its frustum and out of view from every
other room's camera pose. Each visited room is seen for ``k`` consecutive
frames with the camera standing still, so every scripted change there can be
confirmed.

    python3 bench/generate.py --workload clutter --seed 3 --out /tmp/clutter
"""
from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit with an error."""
    if not (SRC / "sgupdate" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources at {SRC / 'sgupdate'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# Labels whose objects never move (decay rate 0 in the packaged table).
IMMOVABLE = ("refrigerator", "pantry", "counter", "tv", "bookshelf", "wardrobe", "sink", "bathtub")

# Movable labels with no synonym among each other, so a label names one kind.
HOUSEHOLD = (
    "book", "tv remote", "pillow", "alarm clock", "hairbrush", "keys", "cup", "mug",
    "plate", "towel", "vase", "banana", "apple", "sandwich", "lamp", "laundry basket",
    "nightstand", "table", "sofa", "bed", "bowl", "bottle", "glass", "jar",
    "candle", "phone", "tablet", "laptop", "charger", "wallet", "umbrella", "hat",
    "scarf", "shoe", "sock", "blanket", "cushion", "plant", "radio", "speaker",
    "camera", "basket", "bucket", "comb", "soap", "tray", "kettle", "pan",
)

CLUTTER = (
    "cup", "mug", "plate", "bowl", "glass", "bottle", "book",
    "pillow", "towel", "keys", "apple", "banana", "vase", "candle",
)

KINDS = ("remove", "move", "add")

ROOM_SIZE = 5.0
ROOM_HEIGHT = 3.0
CAMERA = {"fov_h": 2.2, "fov_v": 1.7, "range": [0.2, 4.0], "epsilon": 0.25, "k": 2}
CAMERA_OFFSET = (0.3, 0.0, 1.0)  # from the room's -x wall centre, at floor level
# Where movable objects go, relative to the same origin: (x, y, z) ranges.
# From the camera this is at most 51 degrees off-axis horizontally, 27
# vertically and 3.6 m away; the nearest object of a neighbouring room is
# more than 71 degrees off-axis or beyond range.
VIEW_BOX = ((1.3, 3.6), (-1.2, 1.2), (0.5, 1.45))
# Changed objects land at least this far (twice the match radius) from the
# room centroid, where objects added or moved by a statement are put until
# perception sees them, and moved objects this far from where they were.
CLEARANCE = 0.5
START_TIME = 3 * 3600.0  # the map was last observed three hours before the episode
ROOM_PERIOD = 10.0  # seconds between consecutive room visits


@dataclass(frozen=True)
class GridSpec:
    """Parameters of one generated workload.

    ``duplicates_per_room`` objects per room cycle through ``duplicate_labels``
    (many objects share a label); ``singles_per_room`` more carry labels
    drawn without replacement from ``single_labels`` (one object per label).
    Removals and moves change single-label objects, because a scripted
    change names its object by label and room; additions take a duplicate
    label when the room has duplicates, else a label absent from the room.
    Change ``g`` (counted over the whole episode) is a removal, move or
    addition by ``g % 3`` and is also stated in text when
    ``g % statement_period < statements_per_period``.
    """

    rooms_x: int
    rooms_y: int
    visited: int
    singles_per_room: int
    immovable_per_room: int
    changes_per_room: int
    statements_per_period: int
    statement_period: int
    single_labels: tuple = HOUSEHOLD
    duplicate_labels: tuple = ()
    duplicates_per_room: int = 0
    mission: bool = False


WORKLOADS: dict[str, Optional[GridSpec]] = {
    # The packaged scenario with small objects below detectability: fixed
    # per-episode costs dominate, so culling or association work should not move it.
    "demo": None,
    # 20,000 objects, about 40 in view per frame: full-graph visibility scans
    # dominate the episode and association stays small.
    "house20k": GridSpec(
        rooms_x=20, rooms_y=20, visited=4, singles_per_room=40, immovable_per_room=10,
        changes_per_room=3, statements_per_period=1, statement_period=2, mission=True,
    ),
    # 250 objects per room, 210 of them under 14 shared labels: about 47k
    # candidate pairs per frame make association dominate, and duplicate
    # labels defer records.
    "clutter": GridSpec(
        rooms_x=3, rooms_y=3, visited=4, singles_per_room=8, immovable_per_room=32,
        changes_per_room=12, statements_per_period=3, statement_period=8,
        single_labels=tuple(label for label in HOUSEHOLD if label not in CLUTTER),
        duplicate_labels=CLUTTER, duplicates_per_room=210,
    ),
}

DEMO_MIN_DETECTABLE_EXTENT = 0.16


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _pose(t) -> dict:
    return {"q": [1.0, 0.0, 0.0, 0.0], "t": [round(v, 3) for v in t]}


def _slug(label: str) -> str:
    return label.replace(" ", "-")


def generate_demo(out: Path) -> Path:
    """Copy the packaged demo with the detector missing objects under 0.16 m.

    Also writes ``scenario_clean.json``, the same episode with an ideal
    detector, for the convergence check.
    """
    data = resources.files("sgupdate.data")
    for name in ("house.json", "decay_table.json", "lexicon.json"):
        (out / name).write_bytes(data.joinpath(name).read_bytes())
    scenario = json.loads(data.joinpath("scenario_house.json").read_text("utf-8"))
    scenario["failures"] = {}
    _write_json(out / "scenario_clean.json", scenario)
    scenario["failures"] = {"min_detectable_extent": DEMO_MIN_DETECTABLE_EXTENT}
    _write_json(out / "scenario.json", scenario)
    return out / "scenario.json"


class _Room:
    def __init__(self, i: int, j: int) -> None:
        self.id = f"r{i:02d}-{j:02d}"
        self.label = f"room {i:02d}-{j:02d}"
        self.center = ((i + 0.5) * ROOM_SIZE, (j + 0.5) * ROOM_SIZE, ROOM_HEIGHT / 2.0)
        self.origin = (i * ROOM_SIZE, (j + 0.5) * ROOM_SIZE, 0.0)  # -x wall centre, floor
        self.camera = tuple(o + d for o, d in zip(self.origin, CAMERA_OFFSET))
        self.movable: list[str] = []  # labels of its movable objects, added ones included
        self.position: dict[str, tuple] = {}  # label -> position, for the last object so named
        self.changed: set[str] = set()  # labels named by a scripted change

    def view_point(self, rng: random.Random, avoid: tuple = ()) -> tuple:
        """A point inside the view box, farther than CLEARANCE from each of ``avoid``."""
        while True:
            p = tuple(o + rng.uniform(lo, hi) for o, (lo, hi) in zip(self.origin, VIEW_BOX))
            if all(math.dist(p, q) > CLEARANCE for q in avoid):
                return p

    def any_point(self, rng: random.Random) -> tuple:
        half = ROOM_SIZE / 2.0 - 0.3
        return (
            self.center[0] + rng.uniform(-half, half),
            self.center[1] + rng.uniform(-half, half),
            rng.uniform(0.3, 1.2),
        )


def _extents(rng: random.Random, lo: float, hi: float) -> list:
    return [round(rng.uniform(lo, hi), 3) for _ in range(3)]


def generate_grid(spec: GridSpec, seed: int, out: Path) -> Path:
    """Write house.json, lexicon.json and scenario.json for a grid workload."""
    from sgupdate.decay import DecayTable, lambda_for

    rng = random.Random(seed)
    table = DecayTable.default()
    rooms = [_Room(i, j) for i in range(spec.rooms_x) for j in range(spec.rooms_y)]
    objects: list[dict] = []
    belongs: dict[str, str] = {}
    counters: dict[str, int] = {}

    def new_object(room: _Room, label: str, t: tuple, extents: list) -> None:
        counters[label] = counters.get(label, 0) + 1
        oid = f"{_slug(label)}-{counters[label]}"
        objects.append({
            "id": oid, "label": label, "pose": _pose(t), "bbox": extents,
            "decay_rate": lambda_for(label, table), "last_seen": 0.0,
            "attached": True, "pose_provisional": False,
        })
        belongs[oid] = room.id

    for room in rooms:
        labels = [spec.duplicate_labels[n % len(spec.duplicate_labels)]
                  for n in range(spec.duplicates_per_room)]
        labels += rng.sample(spec.single_labels, spec.singles_per_room)
        rng.shuffle(labels)
        for label in labels:
            room.position[label] = room.view_point(rng)
            new_object(room, label, room.position[label], _extents(rng, 0.05, 0.4))
            room.movable.append(label)
        for _ in range(spec.immovable_per_room):
            new_object(room, rng.choice(IMMOVABLE), room.any_point(rng), _extents(rng, 0.5, 1.5))
    house = {
        "epoch": 0.0,
        "rooms": [
            {"id": r.id, "label": r.label, "pose": _pose(r.center),
             "bbox": [ROOM_SIZE, ROOM_HEIGHT, ROOM_SIZE]}
            for r in sorted(rooms, key=lambda r: r.id)
        ],
        "objects": sorted(objects, key=lambda o: o["id"]),
        "belongs_to": dict(sorted(belongs.items())),
        "access": sorted(
            [a.id, b.id] for a in rooms for b in rooms
            if a.id < b.id and math.dist(a.center, b.center) == ROOM_SIZE
        ),
    }

    visited = rng.sample(rooms, spec.visited)
    actions, statements, trajectory = [], [], []
    late_poses: dict[_Room, list] = {room: [] for room in visited}
    g = 0
    for v, room in enumerate(visited):
        start = START_TIME + ROOM_PERIOD * v
        singles = [label for label in room.movable if room.movable.count(label) == 1]
        targets = iter(rng.sample(singles, sum(
            KINDS[(g + j) % 3] != "add" for j in range(spec.changes_per_room))))
        if spec.duplicate_labels:
            add_pool = list(spec.duplicate_labels)
        else:
            add_pool = [label for label in spec.single_labels if label not in room.movable]
        add_labels = iter(rng.sample(add_pool, sum(
            KINDS[(g + j) % 3] == "add" for j in range(spec.changes_per_room))))
        for j in range(spec.changes_per_room):
            kind, at = KINDS[g % 3], round(start + 1.0 + 0.1 * j, 3)
            label = next(add_labels if kind == "add" else targets)
            room.changed.add(label)
            if kind == "remove":
                actions.append({"at": at, "action": "remove", "label": label, "room": room.label})
                text = f"I removed the {label} from the {room.label}."
            elif kind == "move":
                pose = _pose(room.view_point(rng, avoid=(room.center, room.position[label])))
                late_poses[room].append(pose["t"])
                actions.append({"at": at, "action": "move", "label": label,
                                "from_room": room.label, "to_pose": pose})
                text = f"I moved the {label} from the {room.label} to the {room.label}."
            else:
                room.movable.append(label)
                pose = _pose(room.view_point(rng, avoid=(room.center,)))
                late_poses[room].append(pose["t"])
                actions.append({"at": at, "action": "add", "label": label, "room": room.label,
                                "pose": pose, "bbox": _extents(rng, 0.05, 0.4)})
                text = f"I put a {label} in the {room.label}."
            if g % spec.statement_period < spec.statements_per_period:
                statements.append({"at": round(start + 2.0 + 0.1 * j, 3), "text": text})
            g += 1
        for f in range(CAMERA["k"]):
            trajectory.append({"at": start + 5.0 + f, "pose": _pose(room.camera)})

    scenario = {
        "house": "house.json",
        "lexicon": "lexicon.json",
        "initial_graph": "from_house",
        "seed": seed,
        "stale_threshold": 0.5,
        "perception": CAMERA,
        "failures": {},
        "virtual_actions": actions,
        "human_statements": statements,
        "trajectory": trajectory,
    }
    if spec.mission:
        scenario["mission"] = _mission(rng, visited, late_poses)
    _check_coverage(house, rooms, visited, late_poses)

    labels = sorted(set(spec.single_labels) | set(spec.duplicate_labels))
    lexicon = json.loads(resources.files("sgupdate.data").joinpath("lexicon.json").read_text("utf-8"))
    lexicon["rooms"] = [r.label for r in rooms]
    lexicon["objects"] = labels
    _write_json(out / "lexicon.json", lexicon)
    (out / "house.json").write_text(
        json.dumps(house, sort_keys=True, separators=(",", ":")), encoding="utf-8"
    )
    _write_json(out / "scenario.json", scenario)
    return out / "scenario.json"


def _mission(rng: random.Random, visited: list, late_poses: dict) -> dict:
    """Fetch an unchanged single-label object from the second visited room
    into the fourth, between their visits, under a label the target room
    lacks so the placed object stays unambiguous there."""
    source, target = visited[1], visited[3]
    candidates = sorted(
        label for label in source.movable
        if source.movable.count(label) == 1
        and label not in source.changed
        and label not in target.movable
    )
    label = rng.choice(candidates)
    pose = _pose(target.view_point(rng, avoid=(target.center,)))
    late_poses[target].append(pose["t"])
    return {
        "mission": f"Pick the {label} in the {source.label} and take it to the {target.label}.",
        "pick_time": START_TIME + ROOM_PERIOD * 1 + 4.0,
        "place_time": START_TIME + ROOM_PERIOD * 3 + 4.0,
        "place_pose": pose,
    }


def _check_coverage(house: dict, rooms: list, visited: list, late_poses: dict) -> None:
    """Every movable object of a visited room, including ones moved or added
    there later, is strictly inside that room's frustum; no movable object of
    another room is."""
    from sgupdate.geometry import Pose
    from sgupdate.perception import CameraModel, point_in_frustum

    cam = CameraModel(CAMERA["fov_h"], CAMERA["fov_v"], *CAMERA["range"])
    by_room: dict[str, list] = {}
    for obj in house["objects"]:
        if obj["decay_rate"] > 0.0:
            by_room.setdefault(house["belongs_to"][obj["id"]], []).append(obj["pose"]["t"])
    for room in visited:
        pose = Pose.identity(room.camera)
        for other in rooms:
            if math.dist(other.center, room.center) > 2 * ROOM_SIZE:
                continue  # beyond the 4 m range by construction
            points = by_room.get(other.id, []) + late_poses.get(other, [])
            for t in points:
                if point_in_frustum(pose, cam, t) != (other is room):
                    raise ValueError(f"coverage broken in {room.label} for a point at {t}")


def generate_spec(spec: Optional[GridSpec], seed: int, out: Path) -> Path:
    """Write a workload's files into a fresh ``out`` and return the scenario path."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    return generate_demo(out) if spec is None else generate_grid(spec, seed, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    require_program()
    print(generate_spec(WORKLOADS[args.workload], args.seed, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
