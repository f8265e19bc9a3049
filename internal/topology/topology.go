// Package topology describes the physical layout of the simulated cluster —
// nodes, sockets and cores — and the placement of PGAS images onto it.
//
// The paper's methodology hinges on the runtime knowing, for every image,
// which node (and, in the multi-level extension, which socket) it runs on,
// so that collectives can treat intra-node peers differently from remote
// peers. Placement is the mapping image -> (node, socket, core); the default
// is block placement (consecutive images fill a node before spilling to the
// next), matching the paper's "8 images per node" runs, but cyclic and
// custom placements are supported so tests can check that hierarchy
// detection does not depend on contiguity.
package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// Placement names an image-to-core assignment policy.
type Placement int

const (
	// PlaceBlock fills each node with consecutive image ranks.
	PlaceBlock Placement = iota
	// PlaceCyclic deals image ranks round-robin across nodes.
	PlaceCyclic
)

func (p Placement) String() string {
	switch p {
	case PlaceBlock:
		return "block"
	case PlaceCyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// MaxImages bounds a topology's images and each dimension of a machine shape:
// specs come from flags and configs, and a count past it is refused instead of
// overflowing the capacity product or the allocator (the scale studies stop at
// 65,536).
const MaxImages = 1 << 20

// Loc is the physical location of one image.
type Loc struct {
	Node   int
	Socket int // socket within node
	Core   int // core within node (global across sockets)
}

// Topology is an immutable cluster description plus an image placement.
type Topology struct {
	nodes          int
	socketsPerNode int
	coresPerSocket int
	locs           []Loc // indexed by image rank
}

// New builds a topology with the given shape and places nImages images on it
// using the placement policy. Each core holds at most one image; New returns
// an error if the machine is too small.
func New(nodes, socketsPerNode, coresPerSocket, nImages int, place Placement) (*Topology, error) {
	if nodes <= 0 || socketsPerNode <= 0 || coresPerSocket <= 0 {
		return nil, fmt.Errorf("topology: non-positive shape %dx%dx%d", nodes, socketsPerNode, coresPerSocket)
	}
	if max(nodes, socketsPerNode, coresPerSocket) > MaxImages || nImages <= 0 || nImages > MaxImages {
		return nil, fmt.Errorf("topology: need 1..%d images on a shape of dimensions up to that, got %d on %dx%dx%d",
			MaxImages, nImages, nodes, socketsPerNode, coresPerSocket)
	}
	capacity := nodes * socketsPerNode * coresPerSocket
	if nImages > capacity {
		return nil, fmt.Errorf("topology: %d images exceed %d cores (%d nodes x %d sockets x %d cores)",
			nImages, capacity, nodes, socketsPerNode, coresPerSocket)
	}
	t := &Topology{
		nodes:          nodes,
		socketsPerNode: socketsPerNode,
		coresPerSocket: coresPerSocket,
		locs:           make([]Loc, nImages),
	}
	coresPerNode := socketsPerNode * coresPerSocket
	for img := 0; img < nImages; img++ {
		var node, core int
		switch place {
		case PlaceBlock:
			node = img / coresPerNode
			core = img % coresPerNode
		case PlaceCyclic:
			node = img % nodes
			core = img / nodes
		default:
			return nil, fmt.Errorf("topology: unknown placement %v", place)
		}
		t.locs[img] = Loc{Node: node, Socket: core / coresPerSocket, Core: core}
	}
	return t, nil
}

// NewCustom builds a topology from an explicit image -> location map. Used
// by tests to construct adversarial placements.
func NewCustom(nodes, socketsPerNode, coresPerSocket int, locs []Loc) (*Topology, error) {
	if len(locs) == 0 {
		return nil, fmt.Errorf("topology: empty placement")
	}
	seen := make(map[Loc]int, len(locs))
	for img, l := range locs {
		if l.Node < 0 || l.Node >= nodes {
			return nil, fmt.Errorf("topology: image %d on node %d outside [0,%d)", img, l.Node, nodes)
		}
		if l.Socket < 0 || l.Socket >= socketsPerNode {
			return nil, fmt.Errorf("topology: image %d on socket %d outside [0,%d)", img, l.Socket, socketsPerNode)
		}
		if l.Core < 0 || l.Core >= socketsPerNode*coresPerSocket {
			return nil, fmt.Errorf("topology: image %d on core %d outside [0,%d)", img, l.Core, socketsPerNode*coresPerSocket)
		}
		if prev, dup := seen[l]; dup {
			return nil, fmt.Errorf("topology: images %d and %d share node %d core %d", prev, img, l.Node, l.Core)
		}
		seen[l] = img
	}
	cp := make([]Loc, len(locs))
	copy(cp, locs)
	return &Topology{nodes: nodes, socketsPerNode: socketsPerNode, coresPerSocket: coresPerSocket, locs: cp}, nil
}

// ParseSpec parses the paper's "images(nodes)" notation, e.g. "64(8)" for 64
// images on 8 nodes, and returns a block-placed topology with dual-socket
// nodes (the paper's dual quad-core layout when 8 images/node).
func ParseSpec(spec string) (*Topology, error) {
	open := strings.IndexByte(spec, '(')
	close_ := strings.IndexByte(spec, ')')
	if open < 0 || close_ < open {
		return nil, fmt.Errorf("topology: bad spec %q, want \"images(nodes)\"", spec)
	}
	images, err := strconv.Atoi(strings.TrimSpace(spec[:open]))
	if err != nil {
		return nil, fmt.Errorf("topology: bad image count in %q: %v", spec, err)
	}
	nodes, err := strconv.Atoi(strings.TrimSpace(spec[open+1 : close_]))
	if err != nil {
		return nil, fmt.Errorf("topology: bad node count in %q: %v", spec, err)
	}
	if nodes <= 0 || images <= 0 {
		return nil, fmt.Errorf("topology: non-positive spec %q", spec)
	}
	if max(images, nodes) > MaxImages {
		return nil, fmt.Errorf("topology: spec %q asks for more than %d images or nodes", spec, MaxImages)
	}
	perNode := (images + nodes - 1) / nodes
	// Dual-socket nodes as on the paper's testbed; at least 4 cores/socket.
	coresPerSocket := (perNode + 1) / 2
	if coresPerSocket < 4 {
		coresPerSocket = 4
	}
	// Spread images evenly: perNode consecutive ranks per node (the paper's
	// "images(nodes)" runs use exactly images/nodes images on each node).
	locs := make([]Loc, images)
	for img := range locs {
		core := img % perNode
		locs[img] = Loc{Node: img / perNode, Socket: core / coresPerSocket, Core: core}
	}
	// In range and distinct by construction: no need for NewCustom's checks
	// (a map insert per image) or its defensive copy.
	return &Topology{nodes: nodes, socketsPerNode: 2, coresPerSocket: coresPerSocket, locs: locs}, nil
}

// ParseShape parses a bare machine shape "NODESxSOCKETSxCORES" (e.g.
// "16x2x4": 16 dual-socket quad-core nodes) without placing any images —
// the form cluster schedulers size a shared machine with. The sockets and
// cores parts may be omitted ("16" or "16x8" mean 2 sockets and an even
// core split, as in ParseSpec's node model).
func ParseShape(shape string) (nodes, socketsPerNode, coresPerSocket int, err error) {
	parts := strings.Split(strings.TrimSpace(shape), "x")
	bad := func() (int, int, int, error) {
		return 0, 0, 0, fmt.Errorf("topology: bad shape %q, want \"nodes[xsockets[xcores]]\"", shape)
	}
	nums := make([]int, 0, 3)
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 || v > MaxImages {
			return bad()
		}
		nums = append(nums, v)
	}
	switch len(nums) {
	case 1:
		return nums[0], 2, 4, nil
	case 2: // "nodes x coresPerNode", dual-socket split
		if nums[1]%2 != 0 {
			return bad()
		}
		return nums[0], 2, nums[1] / 2, nil
	case 3:
		return nums[0], nums[1], nums[2], nil
	default:
		return bad()
	}
}

// NumImages returns the number of placed images.
func (t *Topology) NumImages() int { return len(t.locs) }

// NumNodes returns the number of nodes in the machine.
func (t *Topology) NumNodes() int { return t.nodes }

// SocketsPerNode returns the socket count per node.
func (t *Topology) SocketsPerNode() int { return t.socketsPerNode }

// CoresPerNode returns the core count per node.
func (t *Topology) CoresPerNode() int { return t.socketsPerNode * t.coresPerSocket }

// LocOf returns the physical location of image img (0-based rank).
func (t *Topology) LocOf(img int) Loc { return t.locs[img] }

// NodeOf returns the node hosting image img.
func (t *Topology) NodeOf(img int) int { return t.locs[img].Node }

// SocketOf returns (node, socket) hosting image img.
func (t *Topology) SocketOf(img int) (int, int) {
	l := t.locs[img]
	return l.Node, l.Socket
}

// SameNode reports whether two images share a node.
func (t *Topology) SameNode(a, b int) bool { return t.locs[a].Node == t.locs[b].Node }

// SameSocket reports whether two images share a socket (and hence a node).
func (t *Topology) SameSocket(a, b int) bool {
	return t.locs[a].Node == t.locs[b].Node && t.locs[a].Socket == t.locs[b].Socket
}

// ImagesOnNode returns the image ranks placed on the given node, ascending.
func (t *Topology) ImagesOnNode(node int) []int {
	var out []int
	for img, l := range t.locs {
		if l.Node == node {
			out = append(out, img)
		}
	}
	return out
}

// UsedNodes returns the ascending list of nodes hosting at least one image.
func (t *Topology) UsedNodes() []int {
	seen := make([]bool, t.nodes)
	for _, l := range t.locs {
		seen[l.Node] = true
	}
	var out []int
	for n, ok := range seen {
		if ok {
			out = append(out, n)
		}
	}
	return out
}

// String describes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%d images on %d nodes (%d sockets x %d cores each)",
		len(t.locs), t.nodes, t.socketsPerNode, t.coresPerSocket)
}
